package optimizer

import (
	"fmt"
	"math"
	"sort"

	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/stats"
)

// IndexSet names the secondary indexes visible to the planner, keyed
// "table.column". Hypothetical ("what-if") indexes are expressed by simply
// adding keys that do not exist in storage; the engine materializes them on
// demand when such a plan is executed.
type IndexSet map[string]bool

// Key builds the canonical IndexSet key.
func Key(table, column string) string { return table + "." + column }

// Has reports whether table.column is indexed.
func (s IndexSet) Has(table, column string) bool { return s[Key(table, column)] }

// Optimizer plans queries against one database's schema and statistics.
type Optimizer struct {
	sch     *schema.Schema
	stats   *stats.DBStats
	indexes IndexSet
	params  CostParams
}

// New creates an optimizer. indexes may be nil (no secondary indexes).
func New(sch *schema.Schema, st *stats.DBStats, indexes IndexSet, params CostParams) *Optimizer {
	if indexes == nil {
		indexes = IndexSet{}
	}
	return &Optimizer{sch: sch, stats: st, indexes: indexes, params: params}
}

// Plan produces the cheapest physical plan for the query under the
// analytical cost model. The returned plan carries estimated
// cardinalities, widths and cumulative costs on every node.
func (o *Optimizer) Plan(q *query.Query) (*plan.Node, error) {
	return o.plan(q, nil)
}

// PlanWith plans with an external cost function ranking candidate join
// subplans — the paper's Section 4.2 "naïve approach": use the zero-shot
// cost model to evaluate candidate plans and steer the optimizer. Access
// paths are still chosen analytically; join order and join algorithm are
// ranked by costFn.
func (o *Optimizer) PlanWith(q *query.Query, costFn func(*plan.Node) float64) (*plan.Node, error) {
	if costFn == nil {
		return nil, fmt.Errorf("optimizer: PlanWith requires a cost function")
	}
	return o.plan(q, costFn)
}

// indexSites visits, in one fixed order, every column whose indexed-ness
// the planner reads: the column of each filter (bestAccessPath tries an
// index scan driven by any of a table's own filters) and both sides of
// each join (a lookup join probes an index on the inner table's side of
// the first join connecting a split; which join and which side depends on
// the split, so all are listed). plan fills its per-call index facts from
// this enumeration and consults the IndexSet nowhere else.
func indexSites(q *query.Query, visit func(query.ColumnRef)) {
	for _, f := range q.Filters {
		visit(f.Col)
	}
	for _, j := range q.Joins {
		visit(j.Left)
		visit(j.Right)
	}
}

// RelevantIndexes returns the "table.column" keys q's plan can depend on.
// It is exact in the direction callers rely on: the planner learns about
// indexes only through indexSites, so two IndexSets that agree on these
// keys plan q identically — and one that holds none of them plans it as
// the empty set does.
func RelevantIndexes(q *query.Query) IndexSet {
	rel := IndexSet{}
	indexSites(q, func(c query.ColumnRef) { rel[Key(c.Table, c.Column)] = true })
	return rel
}

// joinFact is what one call of plan knows about one join condition: the
// bits of its two tables, its selectivity, and whether each side's column
// is indexed.
type joinFact struct {
	lbit, rbit uint32
	sel        float64
	lidx, ridx bool
}

// How a table subset's best plan is put together.
const (
	unreached  uint8 = iota // no connected plan (yet)
	baseTable               // a single table's access path
	hashJoin                // probe ⋈ build, hash table on build
	lookupJoin              // probe ⋈ index lookups into the one-table build side
)

// sub is the DP's value for one table subset: the figures of the best
// plan found for it and how to rebuild that plan — not the plan itself.
type sub struct {
	rows, width, cost float64 // the plan's EstRows, Width, EstCost
	key               float64 // ranking key: cost, or the external cost function's answer
	node              *plan.Node
	probe             uint32 // probe-side subset of the winning join; the rest is the build side
	how               uint8
}

// dp is the state of one plan call.
type dp struct {
	o      *Optimizer
	q      *query.Query
	costFn func(*plan.Node) float64
	facts  []joinFact
	tab    []sub // indexed by subset mask
}

func (o *Optimizer) plan(q *query.Query, costFn func(*plan.Node) float64) (*plan.Node, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	// The DP table below is dense: 2^n subs of 48 bytes, 48 MiB at the
	// limit — where the 3^n split enumeration, not the table, is the cost.
	if len(q.Tables) > 20 {
		return nil, fmt.Errorf("optimizer: %d tables exceed DP limit", len(q.Tables))
	}
	tables := append([]string(nil), q.Tables...)
	sort.Strings(tables) // canonical order for the bitmask DP

	indexed := make([]bool, 0, len(q.Filters)+2*len(q.Joins))
	indexSites(q, func(c query.ColumnRef) {
		indexed = append(indexed, len(o.indexes) > 0 && o.indexes.Has(c.Table, c.Column))
	})
	d := &dp{
		o: o, q: q, costFn: costFn,
		facts: make([]joinFact, len(q.Joins)),
		tab:   make([]sub, 1<<uint(len(tables))),
	}
	for k, j := range q.Joins {
		ix := indexed[len(q.Filters)+2*k:]
		d.facts[k] = joinFact{
			lbit: 1 << uint(sort.SearchStrings(tables, j.Left.Table)),
			rbit: 1 << uint(sort.SearchStrings(tables, j.Right.Table)),
			sel:  o.stats.JoinSelectivity(j), lidx: ix[0], ridx: ix[1],
		}
	}

	// Access paths. The tables' filters are carved from one array, each
	// slice capped so an append to one cannot reach the next.
	fs := make([]query.Filter, 0, len(q.Filters))
	fix := make([]bool, 0, len(q.Filters))
	for i, t := range tables {
		lo := len(fs)
		for fi, f := range q.Filters {
			if f.Col.Table == t {
				fs, fix = append(fs, f), append(fix, indexed[fi])
			}
		}
		var own []query.Filter // nil without filters, as Query.FiltersOn has it
		if len(fs) > lo {
			own = fs[lo:len(fs):len(fs)]
		}
		ap := o.bestAccessPath(t, own, fix[lo:])
		d.offer(1<<uint(i), sub{rows: ap.EstRows, width: ap.Width, cost: ap.EstCost, node: ap, how: baseTable})
	}

	// Subsets in ascending mask order: both halves of any split are
	// numerically smaller, so they are final when s is reached. For each,
	// try every split into two connected halves joined by at least one
	// join condition, costing each alternative before anything is built.
	full := uint32(len(d.tab) - 1)
	for s := uint32(3); s <= full; s++ {
		if s&(s-1) == 0 {
			continue // a base table
		}
		// Enumerate proper non-empty subsets l of s (r = s \ l).
		for l := (s - 1) & s; l > 0; l = (l - 1) & s {
			r := s &^ l
			if l > r { // each unordered split once; orders tried below
				continue
			}
			a, b := &d.tab[l], &d.tab[r]
			if a.how == unreached || b.how == unreached {
				continue
			}
			first, rows := d.connect(l, r, a.rows*b.rows)
			if first < 0 {
				continue
			}
			rows, width := math.Max(rows, 1), a.width+b.width
			d.join(s, l, r, first, rows, width)
			d.join(s, r, l, first, rows, width)
		}
	}

	if d.tab[full].how == unreached {
		return nil, fmt.Errorf("optimizer: no plan connects all tables of %q", q.SQL())
	}
	// Only now is the winning tree built, top-down (under PlanWith the
	// cost function needed a node per candidate, so it already exists).
	root := o.addAggregate(d.node(full), q)
	if err := root.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: produced invalid plan: %w", err)
	}
	return root, nil
}

// connect finds the join conditions with one side in subset l and the
// other in r: it returns the index of the first (-1 if there is none) and
// rows scaled by the selectivity of each, in q.Joins order.
func (d *dp) connect(l, r uint32, rows float64) (int, float64) {
	first := -1
	for k := range d.facts {
		f := &d.facts[k]
		if (f.lbit&l != 0 && f.rbit&r != 0) || (f.lbit&r != 0 && f.rbit&l != 0) {
			if first < 0 {
				first = k
			}
			rows *= f.sel
		}
	}
	return first, rows
}

// join offers subset s the two physical joins with probe side p and build
// side b: a hash join, and — when b is a single table with an index on
// its side of the connecting join — an index nested-loop join.
func (d *dp) join(s, p, b uint32, first int, outRows, width float64) {
	probe, build := &d.tab[p], &d.tab[b]
	c := sub{rows: outRows, width: width, probe: p, how: hashJoin}
	c.cost = probe.cost + build.cost + d.o.params.costHashJoin(build.rows, probe.rows, outRows)
	d.offer(s, c)

	f := &d.facts[first]
	if b&(b-1) != 0 || (f.lbit == b && !f.lidx) || (f.lbit != b && !f.ridx) {
		return
	}
	_, lookupCost := d.o.lookupScan(build.node, outRows, probe.rows)
	c.how = lookupJoin
	c.cost = probe.cost + probe.rows*lookupCost + outRows*d.o.params.CPUTuple
	d.offer(s, c)
}

// offer ranks candidate c for subset s and keeps it if it is the first or
// strictly better. Only an external cost function needs the node built.
func (d *dp) offer(s uint32, c sub) {
	c.key = c.cost
	if d.costFn != nil {
		if c.node == nil {
			c.node = d.build(s, c)
		}
		c.key = d.costFn(c.node)
	}
	if cur := &d.tab[s]; cur.how == unreached || c.key < cur.key {
		*cur = c
	}
}

// node returns the plan of subset s's winner, building it (and, through
// build, its inputs) on first use.
func (d *dp) node(s uint32) *plan.Node {
	e := &d.tab[s]
	if e.node == nil {
		e.node = d.build(s, *e)
	}
	return e.node
}

// build makes the join node c describes for subset s.
func (d *dp) build(s uint32, c sub) *plan.Node {
	probe, inner := d.node(c.probe), d.node(s&^c.probe)
	first, _ := d.connect(c.probe, s&^c.probe, 0)
	cond := d.q.Joins[first]
	n := plan.NewNode(plan.HashJoin)
	n.Join = &cond
	n.EstRows, n.Width, n.EstCost = c.rows, c.width, c.cost
	if c.how == lookupJoin {
		lookup := plan.NewNode(plan.IndexScan)
		lookup.Table = inner.Table
		lookup.IndexColumn = cond.Right.Column
		if cond.Left.Table == inner.Table {
			lookup.IndexColumn = cond.Left.Column
		}
		lookup.LookupJoin = true
		lookup.Filters = inner.Filters
		lookup.EstRows, lookup.EstCost = d.o.lookupScan(inner, c.rows, probe.EstRows)
		lookup.Width = inner.Width
		n.Op, inner = plan.NestedLoopJoin, lookup
	}
	n.Children = []*plan.Node{probe, inner}
	return n
}

// lookupScan returns the output rows and per-execution cost of the bare
// scan inner turned into the parameterized index lookup of a nested-loop
// join emitting outRows from probeRows outer rows.
func (o *Optimizer) lookupScan(inner *plan.Node, outRows, probeRows float64) (rows, cost float64) {
	innerRows := float64(o.sch.Table(inner.Table).RowCount)
	avgMatches := outRows / math.Max(probeRows, 1)
	return math.Max(avgMatches, 1), o.params.costIndexLookup(innerRows, avgMatches, len(inner.Filters))
}

// bestAccessPath picks the cheaper of a sequential scan and any applicable
// index scan for a base table with its pushed-down filters; indexed[i]
// says whether filters[i]'s column is.
func (o *Optimizer) bestAccessPath(table string, filters []query.Filter, indexed []bool) *plan.Node {
	tm := o.sch.Table(table)
	rows := float64(tm.RowCount)
	pages := float64(tm.PageCount)
	sel := o.stats.ScanSelectivity(filters)

	n := plan.NewNode(plan.SeqScan)
	n.Table = table
	n.Filters = filters
	n.EstRows = math.Max(rows*sel, 1)
	n.Width = float64(tm.RowWidth())
	n.EstCost = o.params.costSeqScan(pages, rows, len(filters))

	// Try an index scan per filter whose column is indexed. The indexed
	// predicate drives the range; remaining filters are residual. The
	// node turns into the index scan only when that is strictly cheaper.
	for i, f := range filters {
		if !indexed[i] {
			continue
		}
		idxSel := o.stats.FilterSelectivity(f)
		matched := math.Max(rows*idxSel, 1)
		if cost := o.params.costIndexScan(rows, matched, len(filters)-1); cost < n.EstCost {
			n.Op, n.IndexColumn, n.EstCost = plan.IndexScan, f.Col.Column, cost
			// Order filters so the index-driving predicate comes first; the
			// engine relies on this convention.
			n.Filters = append([]query.Filter{f}, removeFilter(filters, i)...)
		}
	}
	return n
}

func removeFilter(fs []query.Filter, i int) []query.Filter {
	out := make([]query.Filter, 0, len(fs)-1)
	out = append(out, fs[:i]...)
	out = append(out, fs[i+1:]...)
	return out
}

// addAggregate wraps the join tree in a HashAggregate if the query
// aggregates.
func (o *Optimizer) addAggregate(child *plan.Node, q *query.Query) *plan.Node {
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
