// Package engine executes physical plans over the storage layer.
//
// Execution serves three purposes in the reproduction pipeline:
//
//  1. It produces the *true* output cardinality of every plan operator
//     (plan.Node.TrueRows), which is both the paper's "exact cardinalities"
//     model input and the reference for evaluating estimates.
//  2. It records work counters (pages read, tuples processed, hash probes,
//     index descents, ...) that the hardware simulator converts into the
//     simulated runtimes acting as the paper's measured query runtimes.
//  3. It computes actual aggregate results, which the test suite verifies
//     against brute-force evaluation — keeping the whole substrate honest.
package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/schema"
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
	// HashAggregate (operators pass row-id tuples only).
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

// sink receives an operator's output tuples one at a time. It must not
// keep the tuple it is handed: the caller reuses the buffer.
type sink func(tuple []int32)

// batch is a materialized intermediate result: the tuples sit one after
// another in one flat slab of row ids, len(tables) cells each.
type batch struct {
	tables []string // base tables, in cell order
	cells  []int32  // cells[i*len(tables)+j] = row id of tables[j] in tuple i
	n      int      // tuple count; aggregate output tuples have no cells
}

func (b *batch) add(tuple []int32) {
	b.cells = append(b.cells, tuple...)
	b.n++
}

func (b *batch) tuple(i int) []int32 {
	w := len(b.tables)
	return b.cells[i*w : (i+1)*w]
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
	// Only a root HashAggregate sets aggValues.
	res := &Result{Rows: b.n, Aggregates: e.aggValues}
	e.aggValues = nil
	return res, nil
}

// exec runs n into a fresh batch.
func (e *Executor) exec(n *plan.Node) (*batch, error) {
	b := &batch{tables: tablesOf(n)}
	return b, e.run(n, b.add)
}

// tablesOf lists the base tables whose row ids make up n's output tuples,
// in cell order: its scans, left to right. Aggregate output has none.
func tablesOf(n *plan.Node) []string {
	switch n.Op {
	case plan.HashAggregate:
		return nil
	case plan.SeqScan, plan.IndexScan:
		return []string{n.Table}
	}
	return append(tablesOf(n.Children[0]), tablesOf(n.Children[1])...)
}

// run executes n and hands its output tuples to out.
func (e *Executor) run(n *plan.Node, out sink) error {
	switch n.Op {
	case plan.SeqScan:
		return e.execSeqScan(n, out)
	case plan.IndexScan:
		if n.LookupJoin {
			return errors.New("engine: lookup index scan executed outside nested-loop join")
		}
		return e.execIndexScan(n, out)
	case plan.HashJoin:
		return e.execHashJoin(n, out)
	case plan.NestedLoopJoin:
		return e.execNLJoin(n, out)
	case plan.HashAggregate:
		return e.execAggregate(n, out)
	default:
		return fmt.Errorf("engine: unknown operator %v", n.Op)
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

// scan is one scan node's table and resolved predicates, with the count of
// predicate evaluations it made.
type scan struct {
	tab         *storage.Table
	filters     []query.Filter
	cols        []*storage.ColumnData
	evals       float64
	pages       map[int32]struct{} // distinct pages an index path fetched rows from
	rowsPerPage int32
}

func (e *Executor) openScan(n *plan.Node) (*scan, error) {
	tab := e.db.Table(n.Table)
	if tab == nil {
		return nil, fmt.Errorf("engine: unknown table %s", n.Table)
	}
	s := &scan{
		tab:         tab,
		filters:     n.Filters,
		cols:        make([]*storage.ColumnData, len(n.Filters)),
		pages:       map[int32]struct{}{},
		rowsPerPage: max(int32(schema.PageSize/tab.Meta.RowWidth()), 1),
	}
	for i, f := range n.Filters {
		if s.cols[i] = tab.Col(f.Col.Column); s.cols[i] == nil {
			return nil, fmt.Errorf("engine: unknown column %s", f.Col)
		}
	}
	return s, nil
}

// match applies every predicate to row r, stopping at the first that
// fails: the filter loop of seq scans, index scans and nested-loop inners.
func (s *scan) match(r int32) bool {
	for i, f := range s.filters {
		s.evals++
		if !evalFilter(s.cols[i], int(r), f) {
			return false
		}
	}
	return true
}

func (e *Executor) execSeqScan(n *plan.Node, out sink) error {
	s, err := e.openScan(n)
	if err != nil {
		return err
	}
	rows, matched := s.tab.Rows(), 0
	var tuple [1]int32
	for r := int32(0); int(r) < rows; r++ {
		if s.match(r) {
			tuple[0] = r
			out(tuple[:])
			matched++
		}
	}
	n.Work = plan.Counters{
		PagesRead: float64(s.tab.Meta.PageCount),
		TuplesIn:  float64(rows),
		TuplesOut: float64(matched),
		PredEvals: s.evals,
		BytesOut:  float64(matched) * n.Width,
	}
	n.TrueRows = float64(matched)
	return nil
}

// execIndexScan runs a constant-range index scan: the first filter is on
// the index column (optimizer convention) and drives the index range; all
// filters are then re-checked as residuals for exactness.
func (e *Executor) execIndexScan(n *plan.Node, out sink) error {
	s, err := e.openScan(n)
	if err != nil {
		return err
	}
	ix, err := e.db.EnsureIndex(n.Table, n.IndexColumn)
	if err != nil {
		return err
	}
	if len(n.Filters) == 0 || n.Filters[0].Col.Column != n.IndexColumn {
		return fmt.Errorf("engine: index scan on %s.%s without driving predicate", n.Table, n.IndexColumn)
	}
	// OpNeq cannot narrow the index range; it scans all entries.
	lead, lo, hi := n.Filters[0], math.Inf(-1), math.Inf(1)
	switch lead.Op {
	case query.OpEq:
		lo, hi = lead.Value, lead.Value
	case query.OpLt, query.OpLe:
		hi = lead.Value
	case query.OpGt, query.OpGe:
		lo = lead.Value
	}
	cand := ix.Range(lo, hi)
	matched := 0
	var tuple [1]int32
	for _, r := range cand {
		if s.match(r) {
			tuple[0] = r
			out(tuple[:])
			matched++
			s.pages[r/s.rowsPerPage] = struct{}{}
		}
	}
	n.Work = plan.Counters{
		PagesRead:    float64(len(s.pages)) + float64(ix.EstimateHeight()),
		TuplesIn:     float64(len(cand)),
		TuplesOut:    float64(matched),
		PredEvals:    s.evals,
		IndexLookups: 1,
		IndexEntries: float64(len(cand)),
		BytesOut:     float64(matched) * n.Width,
	}
	n.TrueRows = float64(matched)
	return nil
}

// colRef is a column resolved against the base tables of an operator's
// tuples: its data, and the cell its table's row id occupies.
type colRef struct {
	col *storage.ColumnData
	pos int
}

// column resolves c against tables, the base tables of a tuple.
func (e *Executor) column(tables []string, c query.ColumnRef) (colRef, error) {
	pos := slices.Index(tables, c.Table)
	if pos < 0 {
		return colRef{}, fmt.Errorf("engine: %s references a table outside its input", c)
	}
	col := e.db.Table(c.Table).Col(c.Column)
	if col == nil {
		return colRef{}, fmt.Errorf("engine: unknown column %s", c)
	}
	return colRef{col: col, pos: pos}, nil
}

// at returns the column's value in tuple, and false if it is NULL.
func (c colRef) at(tuple []int32) (float64, bool) {
	r := int(tuple[c.pos])
	if c.col.IsNull(r) {
		return 0, false
	}
	return c.col.AsFloat(r), true
}

// joinKeys orients join condition j between two inputs, whose tuples hold
// row ids of tables a and b, and resolves each side's key column.
func (e *Executor) joinKeys(j *query.Join, a, b []string) (ka, kb colRef, err error) {
	sa, sb := j.Left, j.Right
	if !slices.Contains(a, sa.Table) {
		sa, sb = sb, sa
	}
	if ka, err = e.column(a, sa); err == nil {
		kb, err = e.column(b, sb)
	}
	return ka, kb, err
}

// joinOut hands a join's output tuples, each a left input tuple followed by
// a right one, to its sink through one reused buffer, and holds their count
// to the tuple cap whether the sink materializes them or aggregates them.
type joinOut struct {
	out sink
	max int
	n   int
	buf []int32
}

func (j *joinOut) emit(a, b []int32) error {
	if j.n++; j.n > j.max {
		return ErrTooLarge
	}
	j.buf = append(append(j.buf[:0], a...), b...)
	j.out(j.buf)
	return nil
}

func (e *Executor) execHashJoin(n *plan.Node, out sink) error {
	probe, err := e.exec(n.Children[0])
	if err != nil {
		return err
	}
	build, err := e.exec(n.Children[1])
	if err != nil {
		return err
	}
	probeKey, buildKey, err := e.joinKeys(n.Join, probe.tables, build.tables)
	if err != nil {
		return err
	}
	ht := make(map[float64][]int, build.n)
	for i := 0; i < build.n; i++ {
		if v, ok := buildKey.at(build.tuple(i)); ok {
			ht[v] = append(ht[v], i)
		}
	}
	j := joinOut{out: out, max: e.max}
	for i := 0; i < probe.n; i++ {
		tuple := probe.tuple(i)
		v, ok := probeKey.at(tuple)
		if !ok {
			continue
		}
		for _, bi := range ht[v] {
			if err := j.emit(tuple, build.tuple(bi)); err != nil {
				return err
			}
		}
	}
	n.Work = plan.Counters{
		TuplesIn:   float64(probe.n + build.n),
		TuplesOut:  float64(j.n),
		HashBuild:  float64(build.n),
		HashProbes: float64(probe.n),
		BytesOut:   float64(j.n) * n.Width,
	}
	n.TrueRows = float64(j.n)
	return nil
}

// execNLJoin runs an index-nested-loop join: per outer tuple, descend the
// inner index on the join key and apply the inner's residual filters.
func (e *Executor) execNLJoin(n *plan.Node, out sink) error {
	outer, err := e.exec(n.Children[0])
	if err != nil {
		return err
	}
	inner := n.Children[1]
	if inner.Op != plan.IndexScan || !inner.LookupJoin {
		return errors.New("engine: nested-loop inner must be a lookup index scan")
	}
	s, err := e.openScan(inner)
	if err != nil {
		return err
	}
	ix, err := e.db.EnsureIndex(inner.Table, inner.IndexColumn)
	if err != nil {
		return err
	}
	outerKey, innerKey, err := e.joinKeys(n.Join, outer.tables, []string{inner.Table})
	if err != nil {
		return err
	}
	if innerKey.col != s.tab.Col(inner.IndexColumn) {
		return fmt.Errorf("engine: join %s does not use the lookup index on %s", n.Join, inner.IndexColumn)
	}
	j := joinOut{out: out, max: e.max}
	lookups, entries := 0.0, 0.0
	for i := 0; i < outer.n; i++ {
		tuple := outer.tuple(i)
		v, ok := outerKey.at(tuple)
		if !ok {
			continue
		}
		lookups++
		matches := ix.Lookup(v)
		entries += float64(len(matches))
		for _, r := range matches {
			if !s.match(r) {
				continue
			}
			s.pages[r/s.rowsPerPage] = struct{}{}
			if err := j.emit(tuple, []int32{r}); err != nil {
				return err
			}
		}
	}
	// Every inner match is one output tuple.
	matched := float64(j.n)
	inner.Work = plan.Counters{
		PagesRead:    float64(len(s.pages)) + lookups*float64(ix.EstimateHeight())*0.1,
		TuplesIn:     entries,
		TuplesOut:    matched,
		PredEvals:    s.evals,
		IndexLookups: lookups,
		IndexEntries: entries,
		BytesOut:     matched * inner.Width,
	}
	inner.TrueRows = matched / math.Max(lookups, 1)
	n.Work = plan.Counters{
		TuplesIn:  float64(outer.n) + matched,
		TuplesOut: matched,
		BytesOut:  matched * n.Width,
	}
	n.TrueRows = matched
	return nil
}
