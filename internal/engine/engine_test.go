package engine

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// bruteForce evaluates a query by nested-loop enumeration over base tables,
// returning the number of qualifying pre-aggregation tuples. It is the
// independent reference implementation the engine is validated against.
func bruteForce(db *storage.Database, q *query.Query) int {
	// Materialize per-table matching rows.
	matching := make([][]int32, len(q.Tables))
	for ti, tname := range q.Tables {
		tab := db.Table(tname)
		for r := 0; r < tab.Rows(); r++ {
			ok := true
			for _, f := range q.FiltersOn(tname) {
				col := tab.Col(f.Col.Column)
				if !evalFilter(col, r, f) {
					ok = false
					break
				}
			}
			if ok {
				matching[ti] = append(matching[ti], int32(r))
			}
		}
	}
	pos := map[string]int{}
	for i, tname := range q.Tables {
		pos[tname] = i
	}
	count := 0
	current := make([]int32, len(q.Tables))
	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(q.Tables) {
			count++
			return
		}
		tname := q.Tables[depth]
		tab := db.Table(tname)
	next:
		for _, r := range matching[depth] {
			current[depth] = r
			// Check join conditions whose both sides are bound.
			for _, j := range q.Joins {
				li, ri := pos[j.Left.Table], pos[j.Right.Table]
				if li > depth || ri > depth {
					continue
				}
				lcol := db.Table(j.Left.Table).Col(j.Left.Column)
				rcol := db.Table(j.Right.Table).Col(j.Right.Column)
				lr, rr := int(current[li]), int(current[ri])
				if lcol.IsNull(lr) || rcol.IsNull(rr) {
					continue next
				}
				if lcol.AsFloat(lr) != rcol.AsFloat(rr) {
					continue next
				}
			}
			rec(depth + 1)
		}
		_ = tab
	}
	rec(0)
	return count
}

func testSetup(t *testing.T) (*storage.Database, *optimizer.Optimizer, *Executor) {
	t.Helper()
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	opt := optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams())
	return db, opt, New(db, Config{})
}

func TestEngineMatchesBruteForceOnRandomQueries(t *testing.T) {
	db, opt, ex := testSetup(t)
	qs, err := query.Synthetic(db, 60, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if len(q.Tables) > 3 {
			continue // keep brute force tractable
		}
		p, err := opt.Plan(q)
		if err != nil {
			t.Fatalf("plan %q: %v", q.SQL(), err)
		}
		if _, err := ex.Execute(p); err != nil {
			t.Fatalf("execute %q: %v", q.SQL(), err)
		}
		want := bruteForce(db, q)
		// The pre-aggregation cardinality is the root's child (or the root
		// itself for plans without aggregation).
		node := p
		if p.Op == plan.HashAggregate {
			node = p.Children[0]
		}
		if int(node.TrueRows) != want {
			t.Fatalf("query %q: engine rows %v, brute force %d\n%s", q.SQL(), node.TrueRows, want, p.Explain())
		}
	}
}

func TestEngineWithIndexesMatchesBruteForce(t *testing.T) {
	db, _, _ := testSetup(t)
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	idx := optimizer.IndexSet{
		optimizer.Key("movie_companies", "movie_id"):        true,
		optimizer.Key("title", "production_year"):           true,
		optimizer.Key("cast_info", "movie_id"):              true,
		optimizer.Key("movie_info", "movie_id"):             true,
		optimizer.Key("movie_companies", "note_len"):        true,
		optimizer.Key("movie_info_idx", "movie_id"):         true,
		optimizer.Key("movie_keyword", "movie_id"):          true,
		optimizer.Key("movie_info_idx", "rating"):           true,
		optimizer.Key("cast_info", "nr_order"):              true,
		optimizer.Key("movie_info", "info_len"):             true,
		optimizer.Key("movie_keyword", "keyword_id"):        true,
		optimizer.Key("movie_companies", "company_type_id"): true,
	}
	opt := optimizer.New(db.Schema, st, idx, optimizer.DefaultCostParams())
	ex := New(db, Config{})
	qs, err := query.Synthetic(db, 60, 23)
	if err != nil {
		t.Fatal(err)
	}
	indexPlans := 0
	for _, q := range qs {
		if len(q.Tables) > 3 {
			continue
		}
		p, err := opt.Plan(q)
		if err != nil {
			t.Fatalf("plan %q: %v", q.SQL(), err)
		}
		usesIndex := false
		p.Walk(func(n *plan.Node) {
			if n.Op == plan.IndexScan {
				usesIndex = true
			}
		})
		if usesIndex {
			indexPlans++
		}
		if _, err := ex.Execute(p); err != nil {
			t.Fatalf("execute %q: %v\n%s", q.SQL(), err, p.Explain())
		}
		want := bruteForce(db, q)
		node := p
		if p.Op == plan.HashAggregate {
			node = p.Children[0]
		}
		if int(node.TrueRows) != want {
			t.Fatalf("query %q: engine rows %v, brute force %d\n%s", q.SQL(), node.TrueRows, want, p.Explain())
		}
	}
	if indexPlans == 0 {
		t.Fatal("no query used an index; test exercises nothing new")
	}
}

func TestAggregateValuesMatchBruteForce(t *testing.T) {
	db, opt, ex := testSetup(t)
	q := &query.Query{
		Tables: []string{"title"},
		Filters: []query.Filter{
			{Col: query.ColumnRef{Table: "title", Column: "kind_id"}, Op: query.OpEq, Value: 0},
		},
		Aggregates: []query.Aggregate{
			{Func: query.AggCount},
			{Func: query.AggMin, Col: query.ColumnRef{Table: "title", Column: "production_year"}},
			{Func: query.AggMax, Col: query.ColumnRef{Table: "title", Column: "production_year"}},
			// AVG exercised in the sum test below; 3 aggregates is the cap.
		},
	}
	p, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1 || len(res.Aggregates) != 1 {
		t.Fatalf("scalar aggregate returned %d rows", res.Rows)
	}
	// Brute force.
	tab := db.Table("title")
	kind := tab.Col("kind_id")
	year := tab.Col("production_year")
	count, minV, maxV := 0.0, math.Inf(1), math.Inf(-1)
	for r := 0; r < tab.Rows(); r++ {
		if kind.IsNull(r) || kind.AsFloat(r) != 0 {
			continue
		}
		count++
		if !year.IsNull(r) {
			v := year.AsFloat(r)
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
	}
	got := res.Aggregates[0]
	if got[0] != count {
		t.Fatalf("COUNT = %v, want %v", got[0], count)
	}
	if count > 0 && (got[1] != minV || got[2] != maxV) {
		t.Fatalf("MIN/MAX = %v/%v, want %v/%v", got[1], got[2], minV, maxV)
	}
}

func TestSumAvgOverJoin(t *testing.T) {
	db, opt, ex := testSetup(t)
	q := &query.Query{
		Tables: []string{"title", "movie_companies"},
		Joins: []query.Join{{
			Left:  query.ColumnRef{Table: "movie_companies", Column: "movie_id"},
			Right: query.ColumnRef{Table: "title", Column: "id"},
		}},
		Aggregates: []query.Aggregate{
			{Func: query.AggSum, Col: query.ColumnRef{Table: "movie_companies", Column: "note_len"}},
			{Func: query.AggAvg, Col: query.ColumnRef{Table: "movie_companies", Column: "note_len"}},
		},
	}
	p, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: every mc row with a valid title contributes note_len.
	mc := db.Table("movie_companies")
	movieID := mc.Col("movie_id")
	noteLen := mc.Col("note_len")
	titleRows := db.Table("title").Rows()
	sum, cnt := 0.0, 0.0
	for r := 0; r < mc.Rows(); r++ {
		if movieID.IsNull(r) {
			continue
		}
		v := movieID.Int(r)
		if v < 0 || v >= int64(titleRows) {
			continue
		}
		if noteLen.IsNull(r) {
			continue
		}
		sum += noteLen.AsFloat(r)
		cnt++
	}
	got := res.Aggregates[0]
	if math.Abs(got[0]-sum) > 1e-6*math.Abs(sum)+1e-9 {
		t.Fatalf("SUM = %v, want %v", got[0], sum)
	}
	wantAvg := sum / cnt
	if math.Abs(got[1]-wantAvg) > 1e-9*math.Abs(wantAvg)+1e-9 {
		t.Fatalf("AVG = %v, want %v", got[1], wantAvg)
	}
}

func TestGroupByCountsMatchBruteForce(t *testing.T) {
	db, opt, ex := testSetup(t)
	q := &query.Query{
		Tables:     []string{"title"},
		Aggregates: []query.Aggregate{{Func: query.AggCount}},
		GroupBy:    []query.ColumnRef{{Table: "title", Column: "kind_id"}},
	}
	p, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force group count.
	tab := db.Table("title")
	kind := tab.Col("kind_id")
	groups := map[float64]float64{}
	nullGroup := 0.0
	for r := 0; r < tab.Rows(); r++ {
		if kind.IsNull(r) {
			nullGroup++
			continue
		}
		groups[kind.AsFloat(r)]++
	}
	wantGroups := len(groups)
	if nullGroup > 0 {
		wantGroups++
	}
	if res.Rows != wantGroups {
		t.Fatalf("groups = %d, want %d", res.Rows, wantGroups)
	}
	total := 0.0
	for _, row := range res.Aggregates {
		total += row[0]
	}
	if total != float64(tab.Rows()) {
		t.Fatalf("sum of group counts = %v, want %d", total, tab.Rows())
	}
}

func TestWorkCountersPopulated(t *testing.T) {
	_, opt, ex := testSetup(t)
	p, err := opt.Plan(&query.Query{
		Tables: []string{"title", "movie_companies"},
		Joins: []query.Join{{
			Left:  query.ColumnRef{Table: "movie_companies", Column: "movie_id"},
			Right: query.ColumnRef{Table: "title", Column: "id"},
		}},
		Aggregates: []query.Aggregate{{Func: query.AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Execute(p); err != nil {
		t.Fatal(err)
	}
	p.Walk(func(n *plan.Node) {
		if n.TrueRows < 0 {
			t.Errorf("node %v has unset TrueRows", n.Op)
		}
		switch n.Op {
		case plan.SeqScan:
			if n.Work.PagesRead <= 0 || n.Work.TuplesIn <= 0 {
				t.Errorf("seq scan counters empty: %+v", n.Work)
			}
		case plan.HashJoin:
			if n.Work.HashBuild <= 0 || n.Work.HashProbes <= 0 {
				t.Errorf("hash join counters empty: %+v", n.Work)
			}
		case plan.HashAggregate:
			if n.Work.Groups != 1 {
				t.Errorf("scalar aggregate groups = %v", n.Work.Groups)
			}
		}
	})
}

func TestScalarAggregateOverEmptyInput(t *testing.T) {
	_, opt, ex := testSetup(t)
	p, err := opt.Plan(&query.Query{
		Tables: []string{"title"},
		Filters: []query.Filter{
			{Col: query.ColumnRef{Table: "title", Column: "production_year"}, Op: query.OpGt, Value: 1e18},
		},
		Aggregates: []query.Aggregate{{Func: query.AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 1 || res.Aggregates[0][0] != 0 {
		t.Fatalf("COUNT over empty input: rows=%d aggs=%v", res.Rows, res.Aggregates)
	}
}

func TestIntermediateCapReturnsErrTooLarge(t *testing.T) {
	// Each join's cap edge: the cap at its exact output count passes, one
	// below returns ErrTooLarge, including when the join streams its
	// tuples into the aggregate above it instead of materializing them.
	db, opt, _ := testSetup(t)
	join := query.Join{
		Left:  query.ColumnRef{Table: "movie_companies", Column: "movie_id"},
		Right: query.ColumnRef{Table: "title", Column: "id"},
	}
	hash, err := opt.Plan(&query.Query{Tables: []string{"title", "movie_companies"}, Joins: []query.Join{join}})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := opt.Plan(&query.Query{
		Tables:     []string{"title", "movie_companies"},
		Joins:      []query.Join{join},
		Aggregates: []query.Aggregate{{Func: query.AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	outer := plan.NewNode(plan.SeqScan)
	outer.Table = "title"
	inner := plan.NewNode(plan.IndexScan)
	inner.Table, inner.IndexColumn, inner.LookupJoin = "movie_companies", "movie_id", true
	nl := plan.NewNode(plan.NestedLoopJoin)
	nl.Join = &join
	nl.Children = []*plan.Node{outer, inner}
	cases := []struct {
		name string
		p    *plan.Node
		op   plan.Operator // of the join
	}{
		{"hash join", hash, plan.HashJoin},
		{"nested-loop join", nl, plan.NestedLoopJoin},
		{"join under aggregate", agg, plan.HashJoin},
	}
	for _, c := range cases {
		j := c.p
		if j.Op == plan.HashAggregate {
			j = j.Children[0]
		}
		if j.Op != c.op {
			t.Fatalf("%s: plan joins with %v\n%s", c.name, j.Op, c.p.Explain())
		}
		ran := c.p.Clone()
		if _, err := New(db, Config{}).Execute(ran); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out := int(ran.TrueRows)
		if ran.Op == plan.HashAggregate {
			out = int(ran.Children[0].TrueRows)
		}
		if out < 2 {
			t.Fatalf("%s: join emitted %d tuples, too few to test the edge", c.name, out)
		}
		if _, err := New(db, Config{MaxIntermediate: out}).Execute(c.p.Clone()); err != nil {
			t.Fatalf("%s: cap at its %d output tuples: %v", c.name, out, err)
		}
		if _, err := New(db, Config{MaxIntermediate: out - 1}).Execute(c.p.Clone()); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s: cap one below its %d output tuples: err = %v, want ErrTooLarge", c.name, out, err)
		}
	}
}

func TestJoinOnUnknownColumnReturnsError(t *testing.T) {
	// Plans are not checked against the schema's columns, so a hand-built
	// join on a column the schema lacks must fail the way a scan's filter
	// on one does, not dereference a missing column.
	db, _, _ := testSetup(t)
	leaf := func(op plan.Operator, table string) *plan.Node {
		n := plan.NewNode(op)
		n.Table = table
		return n
	}
	bad := query.ColumnRef{Table: "title", Column: "no_such_column"}
	mc := query.ColumnRef{Table: "movie_companies", Column: "movie_id"}
	hash := plan.NewNode(plan.HashJoin)
	hash.Join = &query.Join{Left: mc, Right: bad}
	hash.Children = []*plan.Node{leaf(plan.SeqScan, "movie_companies"), leaf(plan.SeqScan, "title")}
	inner := leaf(plan.IndexScan, "movie_companies")
	inner.IndexColumn, inner.LookupJoin = "movie_id", true
	nl := plan.NewNode(plan.NestedLoopJoin)
	nl.Join = &query.Join{Left: bad, Right: mc}
	nl.Children = []*plan.Node{leaf(plan.SeqScan, "title"), inner}
	for _, p := range []*plan.Node{hash, nl} {
		_, err := New(db, Config{}).Execute(p)
		if err == nil || !strings.Contains(err.Error(), "unknown column title.no_such_column") {
			t.Fatalf("%v on an unknown column: err = %v, want unknown column", p.Op, err)
		}
	}
}

func TestNullJoinKeysDoNotMatch(t *testing.T) {
	// Hand-built database where child FK values include NULLs; NULL keys
	// must not match in joins.
	db := makeNullDB()
	st := stats.Collect(db, 8, 4)
	opt := optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams())
	ex := New(db, Config{})
	q := &query.Query{
		Tables: []string{"p", "c"},
		Joins: []query.Join{{
			Left:  query.ColumnRef{Table: "c", Column: "p_id"},
			Right: query.ColumnRef{Table: "p", Column: "id"},
		}},
	}
	p, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	// c has 4 rows; row 1 and 3 have NULL p_id and must not join.
	if res.Rows != 2 {
		t.Fatalf("join rows = %d, want 2 (NULL keys must not match)", res.Rows)
	}
}

// makeNullDB builds parent p(id) with 2 rows and child c(id, p_id) with 4
// rows of which rows 1 and 3 have NULL p_id.
func makeNullDB() *storage.Database {
	pm := &schema.Table{
		Name:     "p",
		Columns:  []schema.Column{{Name: "id", Type: schema.TypeInt, DistinctCount: 2, PrimaryKey: true}},
		RowCount: 2,
	}
	pm.ComputePages()
	cm := &schema.Table{
		Name: "c",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TypeInt, DistinctCount: 4, PrimaryKey: true},
			{Name: "p_id", Type: schema.TypeInt, DistinctCount: 2, NullFrac: 0.5},
		},
		RowCount: 4,
	}
	cm.ComputePages()
	sch := &schema.Schema{
		Name:   "nulljoin",
		Tables: []*schema.Table{pm, cm},
		ForeignKeys: []schema.ForeignKey{
			{FromTable: "c", FromColumn: "p_id", ToTable: "p", ToColumn: "id"},
		},
	}
	db := storage.NewDatabase(sch)
	pt := storage.NewTable(pm)
	pt.Cols[0].Ints = []int64{0, 1}
	db.AddTable(pt)
	ct := storage.NewTable(cm)
	ct.Cols[0].Ints = []int64{0, 1, 2, 3}
	ct.Cols[1].Ints = []int64{0, 0, 1, 0}
	ct.Cols[1].Nulls = []bool{false, true, false, true}
	db.AddTable(ct)
	return db
}

func TestIndexScanWithNeqLeadFilterFallsBackToFullRange(t *testing.T) {
	// The optimizer rarely chooses this plan, but the engine must execute
	// it correctly: a <> lead predicate cannot bound the index range.
	db, _, _ := testSetup(t)
	n := plan.NewNode(plan.IndexScan)
	n.Table = "title"
	n.IndexColumn = "kind_id"
	n.Filters = []query.Filter{
		{Col: query.ColumnRef{Table: "title", Column: "kind_id"}, Op: query.OpNeq, Value: 0},
	}
	n.EstRows = 1
	n.Width = 10
	ex := New(db, Config{})
	if _, err := ex.Execute(n); err != nil {
		t.Fatal(err)
	}
	// Cross-check against a sequential count.
	tab := db.Table("title")
	col := tab.Col("kind_id")
	want := 0
	for r := 0; r < tab.Rows(); r++ {
		if !col.IsNull(r) && col.AsFloat(r) != 0 {
			want++
		}
	}
	if int(n.TrueRows) != want {
		t.Fatalf("neq index scan rows %v, want %d", n.TrueRows, want)
	}
}

func TestIndexScanRequiresDrivingPredicate(t *testing.T) {
	db, _, _ := testSetup(t)
	n := plan.NewNode(plan.IndexScan)
	n.Table = "title"
	n.IndexColumn = "kind_id"
	n.Filters = []query.Filter{
		{Col: query.ColumnRef{Table: "title", Column: "production_year"}, Op: query.OpGt, Value: 1},
	}
	if _, err := New(db, Config{}).Execute(n); err == nil {
		t.Fatal("accepted index scan whose first filter is not on the index column")
	}
}

func TestSelectStarPlansAndExecutes(t *testing.T) {
	db, opt, ex := testSetup(t)
	q := &query.Query{
		Tables: []string{"title"},
		Filters: []query.Filter{
			{Col: query.ColumnRef{Table: "title", Column: "production_year"}, Op: query.OpGt, Value: 50},
		},
	}
	p, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != plan.SeqScan {
		t.Fatalf("root of SELECT * plan is %v", p.Op)
	}
	res, err := ex.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != bruteForce(db, q) {
		t.Fatalf("SELECT * rows %d, want %d", res.Rows, bruteForce(db, q))
	}
	if len(res.Aggregates) != 0 {
		t.Fatal("SELECT * produced aggregate values")
	}
}

func TestExecutorReusableAcrossQueries(t *testing.T) {
	db, opt, ex := testSetup(t)
	qs, err := query.Synthetic(db, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		p, err := opt.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Execute(p); err != nil {
			t.Fatal(err)
		}
	}
	// Re-execute the first query; results must be identical run to run.
	p1, _ := opt.Plan(qs[0])
	p2, _ := opt.Plan(qs[0])
	r1, err := ex.Execute(p1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ex.Execute(p2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows != r2.Rows {
		t.Fatalf("re-execution differs: %d vs %d", r1.Rows, r2.Rows)
	}
}
