package optimizer

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// The planner this package shipped before it learned to cost a join
// before building it, kept verbatim as the oracle (the house method:
// nn/reference_test.go): a heap node for every candidate of every split,
// a map from subset to winner, a size loop over all 2^n masks. Every
// plan the live planner returns must be reflect.DeepEqual to this one's.

func (o *Optimizer) planReference(q *query.Query, costFn func(*plan.Node) float64) (*plan.Node, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	if len(q.Tables) > 20 {
		return nil, fmt.Errorf("optimizer: %d tables exceed DP limit", len(q.Tables))
	}
	tables := append([]string(nil), q.Tables...)
	sort.Strings(tables) // canonical order for the bitmask DP

	tableIdx := map[string]int{}
	for i, t := range tables {
		tableIdx[t] = i
	}

	key := func(n *plan.Node) float64 {
		if costFn == nil {
			return n.EstCost
		}
		return costFn(n)
	}

	// Best plan (and its ranking key) per connected table subset.
	type entry struct {
		node *plan.Node
		key  float64
	}
	best := map[uint32]entry{}
	for i, t := range tables {
		ap := o.refBestAccessPath(t, q.FiltersOn(t))
		best[1<<uint(i)] = entry{node: ap, key: key(ap)}
	}

	n := len(tables)
	full := uint32(1)<<uint(n) - 1
	// DP over subset sizes. For each subset, try every split into two
	// connected halves joined by at least one join condition.
	for size := 2; size <= n; size++ {
		for s := uint32(1); s <= full; s++ {
			if refPopcount(s) != size {
				continue
			}
			// Enumerate proper non-empty subsets l of s (r = s \ l).
			for l := (s - 1) & s; l > 0; l = (l - 1) & s {
				r := s &^ l
				if r == 0 || l > r { // each unordered split once; orders tried below
					continue
				}
				pl, okL := best[l]
				pr, okR := best[r]
				if !okL || !okR {
					continue
				}
				joins := refConnectingJoins(q, tableIdx, l, r)
				if len(joins) == 0 {
					continue
				}
				for _, cand := range o.refJoinCandidates(q, pl.node, pr.node, joins[0], joins) {
					k := key(cand)
					if cur, ok := best[s]; !ok || k < cur.key {
						best[s] = entry{node: cand, key: k}
					}
				}
			}
		}
	}

	rootEntry, ok := best[full]
	if !ok {
		return nil, fmt.Errorf("optimizer: no plan connects all tables of %q", q.SQL())
	}
	root := o.refAddAggregate(rootEntry.node, q)
	if err := root.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: produced invalid plan: %w", err)
	}
	return root, nil
}

func (o *Optimizer) refBestAccessPath(table string, filters []query.Filter) *plan.Node {
	tm := o.sch.Table(table)
	rows := float64(tm.RowCount)
	pages := float64(tm.PageCount)
	width := float64(tm.RowWidth())
	sel := o.stats.ScanSelectivity(filters)
	outRows := math.Max(rows*sel, 1)

	seq := plan.NewNode(plan.SeqScan)
	seq.Table = table
	seq.Filters = filters
	seq.EstRows = outRows
	seq.Width = width
	seq.EstCost = o.params.costSeqScan(pages, rows, len(filters))

	bestPlan := seq
	// Try an index scan per filter whose column is indexed. The indexed
	// predicate drives the range; remaining filters are residual.
	for i, f := range filters {
		if !o.indexes.Has(table, f.Col.Column) {
			continue
		}
		idxSel := o.stats.FilterSelectivity(f)
		matched := math.Max(rows*idxSel, 1)
		ix := plan.NewNode(plan.IndexScan)
		ix.Table = table
		ix.IndexColumn = f.Col.Column
		// Order filters so the index-driving predicate comes first; the
		// engine relies on this convention.
		ix.Filters = append([]query.Filter{f}, refRemoveFilter(filters, i)...)
		ix.EstRows = outRows
		ix.Width = width
		ix.EstCost = o.params.costIndexScan(rows, matched, len(filters)-1)
		if ix.EstCost < bestPlan.EstCost {
			bestPlan = ix
		}
	}
	return bestPlan
}

func refRemoveFilter(fs []query.Filter, i int) []query.Filter {
	out := make([]query.Filter, 0, len(fs)-1)
	out = append(out, fs[:i]...)
	out = append(out, fs[i+1:]...)
	return out
}

// refConnectingJoins returns the query joins with one side in subset l and
// the other in subset r.
func refConnectingJoins(q *query.Query, tableIdx map[string]int, l, r uint32) []query.Join {
	var out []query.Join
	for _, j := range q.Joins {
		li, ri := uint32(1)<<uint(tableIdx[j.Left.Table]), uint32(1)<<uint(tableIdx[j.Right.Table])
		if (li&l != 0 && ri&r != 0) || (li&r != 0 && ri&l != 0) {
			out = append(out, j)
		}
	}
	return out
}

// refJoinCandidates builds the physical join alternatives for combining
// two subplans: hash joins in both orders, and index-nested-loop joins
// when one side is a base-table scan with an index on its join column.
func (o *Optimizer) refJoinCandidates(q *query.Query, a, b *plan.Node, j query.Join, all []query.Join) []*plan.Node {
	outRows := o.refJoinOutputRows(a, b, all)
	width := a.Width + b.Width

	var cands []*plan.Node
	for _, ord := range [][2]*plan.Node{{a, b}, {b, a}} {
		probe, build := ord[0], ord[1]
		hj := plan.NewNode(plan.HashJoin)
		cond := j
		hj.Join = &cond
		hj.Children = []*plan.Node{probe, build}
		hj.EstRows = outRows
		hj.Width = width
		hj.EstCost = probe.EstCost + build.EstCost +
			o.params.costHashJoin(build.EstRows, probe.EstRows, outRows)
		cands = append(cands, hj)

		// Index nested-loop: inner must be a bare scan of one table with an
		// index on its join-side column.
		inner := build
		var innerCol string
		switch {
		case inner.Op != plan.SeqScan && inner.Op != plan.IndexScan:
			continue
		case j.Left.Table == inner.Table:
			innerCol = j.Left.Column
		case j.Right.Table == inner.Table:
			innerCol = j.Right.Column
		default:
			continue
		}
		if !o.indexes.Has(inner.Table, innerCol) {
			continue
		}
		innerRows := float64(o.sch.Table(inner.Table).RowCount)
		lookup := plan.NewNode(plan.IndexScan)
		lookup.Table = inner.Table
		lookup.IndexColumn = innerCol
		lookup.LookupJoin = true
		lookup.Filters = inner.Filters
		avgMatches := outRows / math.Max(probe.EstRows, 1)
		lookup.EstRows = math.Max(avgMatches, 1)
		lookup.Width = inner.Width
		lookup.EstCost = o.params.costIndexLookup(innerRows, avgMatches, len(inner.Filters))

		nl := plan.NewNode(plan.NestedLoopJoin)
		cond2 := j
		nl.Join = &cond2
		nl.Children = []*plan.Node{probe, lookup}
		nl.EstRows = outRows
		nl.Width = width
		nl.EstCost = probe.EstCost + probe.EstRows*lookup.EstCost + outRows*o.params.CPUTuple
		cands = append(cands, nl)
	}
	return cands
}

// refJoinOutputRows estimates the join result size: product of input
// cardinalities times the selectivity of every connecting join condition.
func (o *Optimizer) refJoinOutputRows(a, b *plan.Node, joins []query.Join) float64 {
	rows := a.EstRows * b.EstRows
	for _, j := range joins {
		rows *= o.stats.JoinSelectivity(j)
	}
	return math.Max(rows, 1)
}

func (o *Optimizer) refAddAggregate(child *plan.Node, q *query.Query) *plan.Node {
	if len(q.Aggregates) == 0 && len(q.GroupBy) == 0 {
		return child
	}
	agg := plan.NewNode(plan.HashAggregate)
	agg.Aggregates = q.Aggregates
	agg.GroupBy = q.GroupBy
	agg.Children = []*plan.Node{child}
	groups := o.stats.EstimateGroupCount(q.GroupBy, child.EstRows)
	agg.EstRows = groups
	agg.Width = float64(16 * (len(q.Aggregates) + len(q.GroupBy)))
	agg.EstCost = child.EstCost + o.params.costAggregate(child.EstRows, groups, len(q.Aggregates))
	return agg
}

func refPopcount(x uint32) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// refFixture is one benchmark schema with collected statistics and a
// generated workload (the generator the bench harness streams from).
type refFixture struct {
	name string
	db   *storage.Database
	st   *stats.DBStats
	qs   []*query.Query
}

var (
	refOnce     sync.Once
	refFixtures []refFixture
	refErr      error
)

// referenceFixtures builds (once) imdb, ssb and tpch at a small scale
// with 600 generated queries each.
func referenceFixtures(t testing.TB) []refFixture {
	t.Helper()
	refOnce.Do(func() {
		for _, mk := range []struct {
			name string
			gen  func(float64) (*storage.Database, error)
		}{{"imdb", datagen.IMDBLike}, {"ssb", datagen.SSBLike}, {"tpch", datagen.TPCHLike}} {
			db, err := mk.gen(0.02)
			if err != nil {
				refErr = err
				return
			}
			qs, err := query.NewGenerator(db, query.DefaultGenConfig(), 7).Generate(600)
			if err != nil {
				refErr = err
				return
			}
			if mk.name == "imdb" {
				qs = append(qs, cyclicQueries()...)
			}
			refFixtures = append(refFixtures, refFixture{
				name: mk.name, db: db, qs: qs,
				st: stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs),
			})
		}
	})
	if refErr != nil {
		t.Fatal(refErr)
	}
	return refFixtures
}

// cyclicQueries are shapes the FK-tree generator never draws: several
// join conditions connecting one split (a cycle, and two conditions
// between the same pair of tables), so "the first connecting join" and
// "the product of all their selectivities" are told apart.
func cyclicQueries() []*query.Query {
	col := func(t, c string) query.ColumnRef { return query.ColumnRef{Table: t, Column: c} }
	cycle := []query.Join{
		{Left: col("movie_companies", "movie_id"), Right: col("title", "id")},
		{Left: col("cast_info", "movie_id"), Right: col("title", "id")},
		{Left: col("cast_info", "movie_id"), Right: col("movie_companies", "movie_id")},
		{Left: col("movie_info", "movie_id"), Right: col("cast_info", "movie_id")},
		{Left: col("movie_companies", "company_type_id"), Right: col("movie_info", "info_type_id")},
	}
	count := []query.Aggregate{{Func: query.AggCount}}
	return []*query.Query{
		{
			Tables: []string{"title", "movie_info", "cast_info", "movie_companies"}, Joins: cycle, Aggregates: count,
			Filters: []query.Filter{
				{Col: col("title", "production_year"), Op: query.OpEq, Value: 3},
				{Col: col("cast_info", "role_id"), Op: query.OpEq, Value: 1},
			},
		},
		{
			Tables: []string{"movie_companies", "title", "cast_info"}, Joins: cycle[:3],
			Filters: []query.Filter{{Col: col("movie_companies", "note_len"), Op: query.OpLt, Value: 4}},
		},
		{
			Tables: []string{"title", "movie_companies"}, Aggregates: count,
			Joins: []query.Join{
				{Left: col("title", "season_nr"), Right: col("movie_companies", "note_len")},
				{Left: col("movie_companies", "movie_id"), Right: col("title", "id")},
			},
			Filters: []query.Filter{{Col: col("title", "kind_id"), Op: query.OpEq, Value: 2}},
		},
	}
}

// touchedColumns lists the sorted distinct "table.column" keys q filters
// or joins on — written out here rather than asked of the package, so
// the oracle's variants do not depend on the code under test.
func touchedColumns(q *query.Query) []string {
	set := map[string]bool{}
	for _, f := range q.Filters {
		set[f.Col.String()] = true
	}
	for _, j := range q.Joins {
		set[j.Left.String()] = true
		set[j.Right.String()] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// untouchedColumn returns some non-primary-key column of the schema that
// q neither filters nor joins on ("" if there is none).
func untouchedColumn(sch *schema.Schema, q *query.Query) string {
	touched := map[string]bool{}
	for _, k := range touchedColumns(q) {
		touched[k] = true
	}
	for _, t := range sch.Tables {
		for _, c := range t.Columns {
			if k := Key(t.Name, c.Name); !c.PrimaryKey && !touched[k] {
				return k
			}
		}
	}
	return ""
}

// TestPlanMatchesReference: on generated workloads over three schemas,
// under no index, each touched column indexed alone, all of them, and
// one column the query never touches, the planner returns a tree
// reflect.DeepEqual to the old planner's — ranking by its own cost and
// by an external cost function.
func TestPlanMatchesReference(t *testing.T) {
	costFns := []struct {
		name string
		fn   func(*plan.Node) float64
	}{
		{"Plan", nil},
		{"PlanWith/mirror", func(n *plan.Node) float64 { return n.EstCost }},
		{"PlanWith/rows-first", func(n *plan.Node) float64 { return n.EstRows*1e3 - n.EstCost }},
	}
	for _, fx := range referenceFixtures(t) {
		plans := 0
		for _, q := range fx.qs {
			touched := touchedColumns(q)
			sets := []IndexSet{nil}
			all := IndexSet{}
			for _, k := range touched {
				sets = append(sets, IndexSet{k: true})
				all[k] = true
			}
			sets = append(sets, all)
			if k := untouchedColumn(fx.db.Schema, q); k != "" {
				sets = append(sets, IndexSet{k: true})
			}
			for _, set := range sets {
				opt := New(fx.db.Schema, fx.st, set, DefaultCostParams())
				for _, cf := range costFns {
					want, werr := opt.planReference(q, cf.fn)
					var got *plan.Node
					var gerr error
					if cf.fn == nil {
						got, gerr = opt.Plan(q)
					} else {
						got, gerr = opt.PlanWith(q, cf.fn)
					}
					if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
						t.Fatalf("%s %s %v %q: err %v, reference %v", fx.name, cf.name, set, q.SQL(), gerr, werr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s %v %q:\n%s\nreference:\n%s", fx.name, cf.name, set, q.SQL(), got.Explain(), want.Explain())
					}
					plans++
				}
			}
		}
		t.Logf("%s: %d plans equal the reference planner's", fx.name, plans)
	}
}

// TestRelevantIndexesIsExact: an index on any non-primary-key column
// outside RelevantIndexes(q) leaves q's plan exactly the baseline plan;
// and the set is not vacuous — on each generated mix some relevant index,
// alone, changes some plan.
func TestRelevantIndexesIsExact(t *testing.T) {
	for _, fx := range referenceFixtures(t) {
		base := New(fx.db.Schema, fx.st, nil, DefaultCostParams())
		irrelevant, moved := 0, 0
		for _, q := range fx.qs {
			want, err := base.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			rel := RelevantIndexes(q)
			if got := len(rel); got != len(touchedColumns(q)) {
				t.Fatalf("%s %q: %d relevant indexes %v, the query touches %v", fx.name, q.SQL(), got, rel, touchedColumns(q))
			}
			for _, tm := range fx.db.Schema.Tables {
				for _, c := range tm.Columns {
					k := Key(tm.Name, c.Name)
					if c.PrimaryKey {
						continue
					}
					got, err := New(fx.db.Schema, fx.st, IndexSet{k: true}, DefaultCostParams()).Plan(q)
					if err != nil {
						t.Fatal(err)
					}
					switch same := reflect.DeepEqual(got, want); {
					case !rel[k] && !same:
						t.Fatalf("%s %q: irrelevant index %s changed the plan:\n%s\nbaseline:\n%s", fx.name, q.SQL(), k, got.Explain(), want.Explain())
					case !rel[k]:
						irrelevant++
					case !same:
						moved++
					}
				}
			}
		}
		if irrelevant == 0 || moved == 0 {
			t.Fatalf("%s: vacuous — %d irrelevant indexes checked, %d relevant ones moved a plan", fx.name, irrelevant, moved)
		}
		t.Logf("%s: %d irrelevant single indexes left the plan alone, %d relevant ones changed it", fx.name, irrelevant, moved)
	}
}

// TestPlanAllocCeiling pins what "cost first, build the winner" buys: the
// five-way star join took 311 allocations when every candidate of every
// split was a node.
func TestPlanAllocCeiling(t *testing.T) {
	opt, _ := imdbOptimizer(t, nil)
	q := fiveWayJoin()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := opt.Plan(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 45 {
		t.Fatalf("Plan on the five-way join: %.0f allocs, want <= 45", allocs)
	}
}

// TestSubSize keeps the byte bound stated at the DP limit honest.
func TestSubSize(t *testing.T) {
	if got := unsafe.Sizeof(sub{}); got != 48 {
		t.Fatalf("sub is %d bytes; plan's comment at the 20-table check says 48", got)
	}
}
