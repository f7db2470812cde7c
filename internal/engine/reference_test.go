package engine_test

// This file holds the executor as it stood before its intermediate results
// moved onto one flat tuple slab: engine.go and aggregate.go copied
// verbatim, in the external test package so that none of their names
// collide with the package under test. TestExecuteMatchesReference, at
// the end of the file, holds every Result, TrueRows and Work counter of
// the live executor bit for bit to this copy. Do not edit the copy.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/engine"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// ErrTooLarge is returned when an intermediate result exceeds the
// configured tuple limit; callers (the training-data collector) skip such
// queries, as one would discard runaway training queries in practice.
var ErrTooLarge = errors.New("engine: intermediate result exceeds tuple limit")

// Config bounds execution.
type Config struct {
	// MaxIntermediate caps the tuple count of any intermediate result.
	// Zero means DefaultMaxIntermediate.
	MaxIntermediate int
}

// DefaultMaxIntermediate is the default intermediate-result cap.
const DefaultMaxIntermediate = 20_000_000

// Executor runs plans against one database. Executors are not safe for
// concurrent use; create one per goroutine.
type Executor struct {
	db  *storage.Database
	max int
	// aggValues holds the aggregate outputs of the most recently executed
	// HashAggregate (exec passes row-id batches only).
	aggValues [][]float64
}

// New creates an executor for the database.
func New(db *storage.Database, cfg Config) *Executor {
	max := cfg.MaxIntermediate
	if max <= 0 {
		max = DefaultMaxIntermediate
	}
	return &Executor{db: db, max: max}
}

// Result summarizes one plan execution.
type Result struct {
	// Rows is the number of tuples the root operator emitted.
	Rows int
	// Aggregates holds, per output group, the computed aggregate values in
	// the order of the plan's aggregate list. Empty for non-aggregate plans.
	Aggregates [][]float64
}

// batch is a materialized intermediate result: for each involved base
// table, the row ids contributing to each output tuple.
type batch struct {
	tables []string       // base tables in this batch
	pos    map[string]int // table -> column position in rows
	rows   [][]int32      // rows[i][j] = row id of tables[j] in tuple i
}

func newBatch(tables ...string) *batch {
	b := &batch{tables: tables, pos: map[string]int{}}
	for i, t := range tables {
		b.pos[t] = i
	}
	return b
}

// Execute runs the plan, filling TrueRows and Work on every node, and
// returns the root result. The plan must come from the optimizer (scans
// carry their filters; nested-loop inners are lookup index scans).
func (e *Executor) Execute(p *plan.Node) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	b, err := e.exec(p)
	if err != nil {
		return nil, err
	}
	res := &Result{Rows: len(b.rows)}
	if p.Op == plan.HashAggregate {
		res.Aggregates = e.aggValues
		e.aggValues = nil
	}
	return res, nil
}

func (e *Executor) exec(n *plan.Node) (*batch, error) {
	switch n.Op {
	case plan.SeqScan:
		return e.execSeqScan(n)
	case plan.IndexScan:
		if n.LookupJoin {
			return nil, errors.New("engine: lookup index scan executed outside nested-loop join")
		}
		return e.execIndexScan(n)
	case plan.HashJoin:
		return e.execHashJoin(n)
	case plan.NestedLoopJoin:
		return e.execNLJoin(n)
	case plan.HashAggregate:
		return e.execAggregate(n)
	default:
		return nil, fmt.Errorf("engine: unknown operator %v", n.Op)
	}
}

// evalFilter applies one predicate to a base-table row.
func evalFilter(col *storage.ColumnData, row int, f query.Filter) bool {
	if col.IsNull(row) {
		return false
	}
	v := col.AsFloat(row)
	switch f.Op {
	case query.OpEq:
		return v == f.Value
	case query.OpNeq:
		return v != f.Value
	case query.OpLt:
		return v < f.Value
	case query.OpLe:
		return v <= f.Value
	case query.OpGt:
		return v > f.Value
	case query.OpGe:
		return v >= f.Value
	default:
		return false
	}
}

func (e *Executor) execSeqScan(n *plan.Node) (*batch, error) {
	tab := e.db.Table(n.Table)
	if tab == nil {
		return nil, fmt.Errorf("engine: unknown table %s", n.Table)
	}
	cols := make([]*storage.ColumnData, len(n.Filters))
	for i, f := range n.Filters {
		cols[i] = tab.Col(f.Col.Column)
		if cols[i] == nil {
			return nil, fmt.Errorf("engine: unknown column %s", f.Col)
		}
	}
	out := newBatch(n.Table)
	rows := tab.Rows()
	evals := 0.0
	for r := 0; r < rows; r++ {
		match := true
		for i, f := range n.Filters {
			evals++
			if !evalFilter(cols[i], r, f) {
				match = false
				break
			}
		}
		if match {
			out.rows = append(out.rows, []int32{int32(r)})
		}
	}
	n.Work = plan.Counters{
		PagesRead: float64(tab.Meta.PageCount),
		TuplesIn:  float64(rows),
		TuplesOut: float64(len(out.rows)),
		PredEvals: evals,
		BytesOut:  float64(len(out.rows)) * n.Width,
	}
	n.TrueRows = float64(len(out.rows))
	return out, nil
}

// execIndexScan runs a constant-range index scan: the first filter is on
// the index column (optimizer convention) and drives the index range; all
// filters are then re-checked as residuals for exactness.
func (e *Executor) execIndexScan(n *plan.Node) (*batch, error) {
	tab := e.db.Table(n.Table)
	if tab == nil {
		return nil, fmt.Errorf("engine: unknown table %s", n.Table)
	}
	ix, err := e.db.EnsureIndex(n.Table, n.IndexColumn)
	if err != nil {
		return nil, err
	}
	if len(n.Filters) == 0 || n.Filters[0].Col.Column != n.IndexColumn {
		return nil, fmt.Errorf("engine: index scan on %s.%s without driving predicate", n.Table, n.IndexColumn)
	}
	lead := n.Filters[0]
	var cand []int32
	switch lead.Op {
	case query.OpEq:
		cand = ix.Lookup(lead.Value)
	case query.OpLt, query.OpLe:
		cand = ix.Range(math.Inf(-1), lead.Value)
	case query.OpGt, query.OpGe:
		cand = ix.Range(lead.Value, math.Inf(1))
	default: // OpNeq cannot use the index range; scan all entries
		cand = ix.Range(math.Inf(-1), math.Inf(1))
	}
	cols := make([]*storage.ColumnData, len(n.Filters))
	for i, f := range n.Filters {
		cols[i] = tab.Col(f.Col.Column)
		if cols[i] == nil {
			return nil, fmt.Errorf("engine: unknown column %s", f.Col)
		}
	}
	out := newBatch(n.Table)
	evals := 0.0
	pages := map[int32]struct{}{}
	rowsPerPage := int32(schema.PageSize / tab.Meta.RowWidth())
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	for _, r := range cand {
		match := true
		for i, f := range n.Filters {
			evals++
			if !evalFilter(cols[i], int(r), f) {
				match = false
				break
			}
		}
		if match {
			out.rows = append(out.rows, []int32{r})
			pages[r/rowsPerPage] = struct{}{}
		}
	}
	n.Work = plan.Counters{
		PagesRead:    float64(len(pages)) + float64(ix.EstimateHeight()),
		TuplesIn:     float64(len(cand)),
		TuplesOut:    float64(len(out.rows)),
		PredEvals:    evals,
		IndexLookups: 1,
		IndexEntries: float64(len(cand)),
		BytesOut:     float64(len(out.rows)) * n.Width,
	}
	n.TrueRows = float64(len(out.rows))
	return out, nil
}

// joinKey returns the join value of a tuple for the side of the condition
// belonging to the batch, and whether it is non-null.
func joinValue(db *storage.Database, b *batch, tuple []int32, side query.ColumnRef) (float64, bool) {
	pos, ok := b.pos[side.Table]
	if !ok {
		return 0, false
	}
	col := db.Table(side.Table).Col(side.Column)
	r := int(tuple[pos])
	if col.IsNull(r) {
		return 0, false
	}
	return col.AsFloat(r), true
}

// sides orients the join condition: returns the ColumnRef belonging to
// batch a and the one belonging to batch b.
func sides(j *query.Join, a, b *batch) (query.ColumnRef, query.ColumnRef, error) {
	if _, ok := a.pos[j.Left.Table]; ok {
		if _, ok2 := b.pos[j.Right.Table]; ok2 {
			return j.Left, j.Right, nil
		}
	}
	if _, ok := a.pos[j.Right.Table]; ok {
		if _, ok2 := b.pos[j.Left.Table]; ok2 {
			return j.Right, j.Left, nil
		}
	}
	return query.ColumnRef{}, query.ColumnRef{}, fmt.Errorf("engine: join %s does not connect its inputs", j)
}

func concatTuple(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

func (e *Executor) execHashJoin(n *plan.Node) (*batch, error) {
	probe, err := e.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	build, err := e.exec(n.Children[1])
	if err != nil {
		return nil, err
	}
	probeSide, buildSide, err := sides(n.Join, probe, build)
	if err != nil {
		return nil, err
	}
	ht := make(map[float64][]int, len(build.rows))
	for i, tuple := range build.rows {
		v, ok := joinValue(e.db, build, tuple, buildSide)
		if !ok {
			continue
		}
		ht[v] = append(ht[v], i)
	}
	out := newBatch(append(append([]string{}, probe.tables...), build.tables...)...)
	for _, tuple := range probe.rows {
		v, ok := joinValue(e.db, probe, tuple, probeSide)
		if !ok {
			continue
		}
		for _, bi := range ht[v] {
			out.rows = append(out.rows, concatTuple(tuple, build.rows[bi]))
			if len(out.rows) > e.max {
				return nil, ErrTooLarge
			}
		}
	}
	n.Work = plan.Counters{
		TuplesIn:   float64(len(probe.rows) + len(build.rows)),
		TuplesOut:  float64(len(out.rows)),
		HashBuild:  float64(len(build.rows)),
		HashProbes: float64(len(probe.rows)),
		BytesOut:   float64(len(out.rows)) * n.Width,
	}
	n.TrueRows = float64(len(out.rows))
	return out, nil
}

// execNLJoin runs an index-nested-loop join: per outer tuple, descend the
// inner index on the join key and apply the inner's residual filters.
func (e *Executor) execNLJoin(n *plan.Node) (*batch, error) {
	outer, err := e.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	inner := n.Children[1]
	if inner.Op != plan.IndexScan || !inner.LookupJoin {
		return nil, errors.New("engine: nested-loop inner must be a lookup index scan")
	}
	tab := e.db.Table(inner.Table)
	if tab == nil {
		return nil, fmt.Errorf("engine: unknown table %s", inner.Table)
	}
	ix, err := e.db.EnsureIndex(inner.Table, inner.IndexColumn)
	if err != nil {
		return nil, err
	}
	outerSide, innerSide, err := sidesNL(n.Join, outer, inner.Table)
	if err != nil {
		return nil, err
	}
	if innerSide.Column != inner.IndexColumn {
		return nil, fmt.Errorf("engine: lookup index on %s but join column is %s", inner.IndexColumn, innerSide.Column)
	}
	cols := make([]*storage.ColumnData, len(inner.Filters))
	for i, f := range inner.Filters {
		cols[i] = tab.Col(f.Col.Column)
		if cols[i] == nil {
			return nil, fmt.Errorf("engine: unknown column %s", f.Col)
		}
	}
	out := newBatch(append(append([]string{}, outer.tables...), inner.Table)...)
	lookups, entries, evals := 0.0, 0.0, 0.0
	pages := map[int32]struct{}{}
	rowsPerPage := int32(schema.PageSize / tab.Meta.RowWidth())
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	innerOut := 0.0
	for _, tuple := range outer.rows {
		v, ok := joinValue(e.db, outer, tuple, outerSide)
		if !ok {
			continue
		}
		lookups++
		matches := ix.Lookup(v)
		entries += float64(len(matches))
		for _, r := range matches {
			ok := true
			for i, f := range inner.Filters {
				evals++
				if !evalFilter(cols[i], int(r), f) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			innerOut++
			pages[r/rowsPerPage] = struct{}{}
			out.rows = append(out.rows, concatTuple(tuple, []int32{r}))
			if len(out.rows) > e.max {
				return nil, ErrTooLarge
			}
		}
	}
	inner.Work = plan.Counters{
		PagesRead:    float64(len(pages)) + lookups*float64(ix.EstimateHeight())*0.1,
		TuplesIn:     entries,
		TuplesOut:    innerOut,
		PredEvals:    evals,
		IndexLookups: lookups,
		IndexEntries: entries,
		BytesOut:     innerOut * inner.Width,
	}
	inner.TrueRows = innerOut / math.Max(lookups, 1)
	n.Work = plan.Counters{
		TuplesIn:  float64(len(outer.rows)) + innerOut,
		TuplesOut: float64(len(out.rows)),
		BytesOut:  float64(len(out.rows)) * n.Width,
	}
	n.TrueRows = float64(len(out.rows))
	return out, nil
}

// sidesNL orients a join for a nested-loop whose inner is a base table.
func sidesNL(j *query.Join, outer *batch, innerTable string) (query.ColumnRef, query.ColumnRef, error) {
	if j.Left.Table == innerTable {
		if _, ok := outer.pos[j.Right.Table]; !ok {
			return query.ColumnRef{}, query.ColumnRef{}, fmt.Errorf("engine: join %s does not connect outer", j)
		}
		return j.Right, j.Left, nil
	}
	if j.Right.Table == innerTable {
		if _, ok := outer.pos[j.Left.Table]; !ok {
			return query.ColumnRef{}, query.ColumnRef{}, fmt.Errorf("engine: join %s does not connect outer", j)
		}
		return j.Left, j.Right, nil
	}
	return query.ColumnRef{}, query.ColumnRef{}, fmt.Errorf("engine: join %s does not involve inner table %s", j, innerTable)
}

// ---- aggregate.go ----

// aggState accumulates one aggregate function over one group.
type aggState struct {
	fn    query.AggFunc
	count float64
	sum   float64
	min   float64
	max   float64
	any   bool
}

func newAggState(fn query.AggFunc) *aggState {
	return &aggState{fn: fn, min: math.Inf(1), max: math.Inf(-1)}
}

func (s *aggState) update(v float64, isNull bool) {
	if s.fn == query.AggCount {
		s.count++ // COUNT(*) counts rows regardless of nulls
		return
	}
	if isNull {
		return
	}
	s.any = true
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

func (s *aggState) value() float64 {
	switch s.fn {
	case query.AggCount:
		return s.count
	case query.AggSum:
		if !s.any {
			return 0
		}
		return s.sum
	case query.AggAvg:
		if s.count == 0 {
			return 0
		}
		return s.sum / s.count
	case query.AggMin:
		if !s.any {
			return 0
		}
		return s.min
	case query.AggMax:
		if !s.any {
			return 0
		}
		return s.max
	default:
		return 0
	}
}

// execAggregate evaluates grouped or scalar aggregates over the child
// batch, records the resulting group values on the executor, and returns a
// batch with one (empty) tuple per group so that cardinalities propagate.
func (e *Executor) execAggregate(n *plan.Node) (*batch, error) {
	child, err := e.exec(n.Children[0])
	if err != nil {
		return nil, err
	}
	// Resolve aggregate input columns.
	type aggCol struct {
		col *storage.ColumnData
		pos int // position of the table in the child batch
	}
	aggCols := make([]aggCol, len(n.Aggregates))
	for i, a := range n.Aggregates {
		if a.Func == query.AggCount && a.Col.Table == "" {
			aggCols[i] = aggCol{pos: -1}
			continue
		}
		pos, ok := child.pos[a.Col.Table]
		if !ok {
			return nil, fmt.Errorf("engine: aggregate %s references table outside plan", a)
		}
		col := e.db.Table(a.Col.Table).Col(a.Col.Column)
		if col == nil {
			return nil, fmt.Errorf("engine: aggregate %s references unknown column", a)
		}
		aggCols[i] = aggCol{col: col, pos: pos}
	}
	// Resolve group-by columns.
	type grpCol struct {
		col *storage.ColumnData
		pos int
	}
	grpCols := make([]grpCol, len(n.GroupBy))
	for i, g := range n.GroupBy {
		pos, ok := child.pos[g.Table]
		if !ok {
			return nil, fmt.Errorf("engine: group by %s references table outside plan", g)
		}
		col := e.db.Table(g.Table).Col(g.Column)
		if col == nil {
			return nil, fmt.Errorf("engine: group by %s references unknown column", g)
		}
		grpCols[i] = grpCol{col: col, pos: pos}
	}

	groups := map[string][]*aggState{}
	var keyOrder []string
	keyBuf := make([]float64, len(grpCols))
	updates := 0.0
	for _, tuple := range child.rows {
		for i, gc := range grpCols {
			r := int(tuple[gc.pos])
			if gc.col.IsNull(r) {
				keyBuf[i] = math.NaN()
			} else {
				keyBuf[i] = gc.col.AsFloat(r)
			}
		}
		key := groupKey(keyBuf)
		states, ok := groups[key]
		if !ok {
			states = make([]*aggState, len(n.Aggregates))
			for i, a := range n.Aggregates {
				states[i] = newAggState(a.Func)
			}
			groups[key] = states
			keyOrder = append(keyOrder, key)
		}
		for i, ac := range aggCols {
			updates++
			if ac.pos < 0 {
				states[i].update(0, false)
				continue
			}
			r := int(tuple[ac.pos])
			states[i].update(ac.col.AsFloat(r), ac.col.IsNull(r))
		}
	}
	// Scalar aggregates over empty input still produce one output row.
	if len(grpCols) == 0 && len(groups) == 0 {
		states := make([]*aggState, len(n.Aggregates))
		for i, a := range n.Aggregates {
			states[i] = newAggState(a.Func)
		}
		groups[""] = states
		keyOrder = append(keyOrder, "")
	}
	sort.Strings(keyOrder)
	e.aggValues = make([][]float64, 0, len(groups))
	for _, key := range keyOrder {
		states := groups[key]
		row := make([]float64, len(states))
		for i, s := range states {
			row[i] = s.value()
		}
		e.aggValues = append(e.aggValues, row)
	}

	out := newBatch() // aggregate output carries no base-table row ids
	out.rows = make([][]int32, len(groups))
	n.Work = plan.Counters{
		TuplesIn:   float64(len(child.rows)),
		TuplesOut:  float64(len(groups)),
		AggUpdates: updates,
		Groups:     float64(len(groups)),
		BytesOut:   float64(len(groups)) * n.Width,
	}
	n.TrueRows = float64(len(groups))
	return out, nil
}

// groupKey serializes group-by values into a map key.
func groupKey(vals []float64) string {
	buf := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(bits>>uint(s)))
		}
	}
	return string(buf)
}

// ---- the pin ----

// referenceCap is the tuple cap of the generated workloads. It is low
// enough that a few plans on every larger database exceed it (they must
// fail the same way, with the same annotations below the failing join)
// and keeps the run short; each plan's own cap edges are checked apart.
const referenceCap = 50_000

// TestExecuteMatchesReference runs generated workloads on the three fixed
// schemas at two scales and on one generated schema, planned once without
// indexes and once with every non-key column indexed (so hash joins, index
// scans and nested-loop joins all run). Each plan, and the join tree under
// its aggregate on its own, must give the reference's Result and every
// node's TrueRows and Work bit for bit. Each plan with a join then runs
// again with the cap at its largest join's output (it must pass) and one
// below (ErrTooLarge from both).
func TestExecuteMatchesReference(t *testing.T) {
	dbs := []struct {
		name  string
		build func() (*storage.Database, error)
	}{
		{"imdb-0.02", func() (*storage.Database, error) { return datagen.IMDBLike(0.02) }},
		{"imdb-0.1", func() (*storage.Database, error) { return datagen.IMDBLike(0.1) }},
		{"ssb-0.02", func() (*storage.Database, error) { return datagen.SSBLike(0.02) }},
		{"ssb-0.1", func() (*storage.Database, error) { return datagen.SSBLike(0.1) }},
		{"tpch-0.02", func() (*storage.Database, error) { return datagen.TPCHLike(0.02) }},
		{"tpch-0.1", func() (*storage.Database, error) { return datagen.TPCHLike(0.1) }},
		{"generated", func() (*storage.Database, error) { return datagen.Generate("gen", 5, datagen.DefaultConfig()) }},
	}
	for _, d := range dbs {
		t.Run(d.name, func(t *testing.T) {
			db, err := d.build()
			if err != nil {
				t.Fatal(err)
			}
			st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
			all := optimizer.IndexSet{}
			for _, tm := range db.Schema.Tables {
				for _, c := range tm.Columns {
					if !c.PrimaryKey {
						all[optimizer.Key(tm.Name, c.Name)] = true
					}
				}
			}
			opts := []*optimizer.Optimizer{
				optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams()),
				optimizer.New(db.Schema, st, all, optimizer.DefaultCostParams()),
			}
			qs, err := query.Synthetic(db, 30, 41)
			if err != nil {
				t.Fatal(err)
			}
			capped, edges := 0, 0
			for _, q := range qs {
				for _, opt := range opts {
					p, err := opt.Plan(q)
					if err != nil {
						t.Fatalf("plan %q: %v", q.SQL(), err)
					}
					plans := []*plan.Node{p}
					if p.Op == plan.HashAggregate && len(p.Children[0].Children) > 0 {
						plans = append(plans, p.Children[0])
					}
					for _, sub := range plans {
						ran, err := matchReference(t, db, sub, referenceCap)
						if err != nil {
							capped++
							continue
						}
						largest := 0
						ran.Walk(func(n *plan.Node) {
							if (n.Op == plan.HashJoin || n.Op == plan.NestedLoopJoin) && int(n.TrueRows) > largest {
								largest = int(n.TrueRows)
							}
						})
						if largest < 2 {
							continue
						}
						edges++
						if _, err := matchReference(t, db, sub, largest); err != nil {
							t.Fatalf("%q: cap at its largest join's %d tuples: %v", q.SQL(), largest, err)
						}
						if _, err := matchReference(t, db, sub, largest-1); err == nil {
							t.Fatalf("%q: cap one below its largest join's %d tuples passed", q.SQL(), largest)
						}
					}
				}
			}
			t.Logf("%d plans over the cap, %d cap edges checked", capped, edges)
			if edges == 0 {
				t.Fatal("no plan with a join ran: the cap edges went unchecked")
			}
		})
	}
}

// matchReference executes clones of p with both executors under the same
// cap, fails the test unless they agree bit for bit (ErrTooLarge included),
// and returns the live executor's annotated clone and its error, which is
// nil or ErrTooLarge.
func matchReference(t *testing.T, db *storage.Database, p *plan.Node, max int) (*plan.Node, error) {
	t.Helper()
	got, want := p.Clone(), p.Clone()
	gres, gerr := engine.New(db, engine.Config{MaxIntermediate: max}).Execute(got)
	wres, werr := New(db, Config{MaxIntermediate: max}).Execute(want)
	if errors.Is(werr, ErrTooLarge) {
		if !errors.Is(gerr, engine.ErrTooLarge) {
			t.Fatalf("cap %d: err = %v, reference ErrTooLarge\n%s", max, gerr, p.Explain())
		}
	} else if werr != nil || gerr != nil {
		t.Fatalf("cap %d: err = %v, reference %v\n%s", max, gerr, werr, p.Explain())
	}
	if werr == nil {
		if gres.Rows != wres.Rows || len(gres.Aggregates) != len(wres.Aggregates) {
			t.Fatalf("result %d rows / %d groups, reference %d / %d\n%s", gres.Rows, len(gres.Aggregates), wres.Rows, len(wres.Aggregates), p.Explain())
		}
		for i, row := range wres.Aggregates {
			for j, v := range row {
				if math.Float64bits(gres.Aggregates[i][j]) != math.Float64bits(v) {
					t.Fatalf("group %d aggregate %d = %v, reference %v\n%s", i, j, gres.Aggregates[i][j], v, p.Explain())
				}
			}
		}
	}
	var gn, wn []*plan.Node
	got.Walk(func(n *plan.Node) { gn = append(gn, n) })
	want.Walk(func(n *plan.Node) { wn = append(wn, n) })
	for i, w := range wn {
		if g := gn[i]; math.Float64bits(g.TrueRows) != math.Float64bits(w.TrueRows) || counterBits(g.Work) != counterBits(w.Work) {
			t.Fatalf("cap %d, %s node: TrueRows %v Work %+v, reference %v %+v\n%s", max, w.Op, g.TrueRows, g.Work, w.TrueRows, w.Work, want.Explain())
		}
	}
	return got, gerr
}

// counterBits spells every work counter as its bit pattern.
func counterBits(c plan.Counters) [11]uint64 {
	return [11]uint64{
		math.Float64bits(c.PagesRead), math.Float64bits(c.TuplesIn), math.Float64bits(c.TuplesOut),
		math.Float64bits(c.PredEvals), math.Float64bits(c.HashBuild), math.Float64bits(c.HashProbes),
		math.Float64bits(c.IndexLookups), math.Float64bits(c.IndexEntries), math.Float64bits(c.AggUpdates),
		math.Float64bits(c.Groups), math.Float64bits(c.BytesOut),
	}
}
