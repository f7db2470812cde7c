// Package encoding implements query featurization:
//
//   - the paper's transferable graph encoding (Figure 2): the entire query
//     is a graph of plan-operator, table, column, predicate and aggregate
//     nodes, each annotated with features that keep their meaning on any
//     database (data types, row/page counts, cardinalities) — never names
//     or one-hot column identities;
//   - the non-transferable one-hot featurizations used by the
//     workload-driven baselines (MSCN and E2E), kept faithful to their
//     originals precisely because their failure to transfer is the paper's
//     motivation.
package encoding

import (
	"fmt"
	"math"
	"sync"

	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/schema"
)

// NodeType enumerates graph node kinds of the zero-shot encoding.
type NodeType int

const (
	// OpNode is a physical plan operator.
	OpNode NodeType = iota
	// TableNode is a base table with transferable statistics features.
	TableNode
	// ColumnNode is a column with data-type features.
	ColumnNode
	// PredNode is a filter predicate (structure only — no literal values,
	// per the separation-of-concerns principle of Section 2.2).
	PredNode
	// AggNode is one aggregate expression.
	AggNode
)

// NumNodeTypes is the number of graph node kinds.
const NumNodeTypes = 5

// HWFeatDim is the width of the optional hardware descriptor appended to
// every operator node (zero when no hardware is specified), enabling the
// Section 4.3 extension: predicting runtimes on unseen hardware.
const HWFeatDim = 5

// Feature vector dimensions per node type.
const (
	// OpFeatDim: operator one-hot, lookup-join flag, log cardinality,
	// log width, log index height, hardware descriptor.
	OpFeatDim = plan.NumOperators + 4 + HWFeatDim
	// TableFeatDim: log rows, log pages, log row width.
	TableFeatDim = 3
	// ColumnFeatDim: data-type one-hot, log distinct, null fraction,
	// width/16.
	ColumnFeatDim = schema.NumDataTypes + 3
	// PredFeatDim: comparison-operator one-hot.
	PredFeatDim = query.NumCmpOps
	// AggFeatDim: aggregate-function one-hot.
	AggFeatDim = query.NumAggFuncs
)

// featDims is FeatDim's table, in NodeType order.
var featDims = [NumNodeTypes]int{OpFeatDim, TableFeatDim, ColumnFeatDim, PredFeatDim, AggFeatDim}

// FeatDim returns the feature dimensionality of a node type. It is a
// table lookup, so it inlines into Pack's and GraphBuilder.Add's loops;
// an unknown type is out of the table's range and panics.
func FeatDim(t NodeType) int { return featDims[t] }

// Graph is an encoded query: a DAG rooted at the plan's root operator.
// Column nodes are shared between the predicates and aggregates that
// reference them, so the structure is a DAG, not a tree. Hidden states
// flow child -> parent, and the plan root is the graph root (the paper's
// bottom-up message passing on the DAG).
//
// A graph is flat: every field is an index or a float, so it holds no
// pointer the garbage collector must scan, however many graphs a plan
// cache retains. Nodes are numbered in topological order (children
// before parents) and the root is the last node. Graphs are built only
// by a GraphBuilder, and are immutable once built.
type Graph struct {
	// feats holds every node's feature row, grouped by node type: type
	// t's rows, FeatDim(t) wide each and in topological order, are
	// feats[featAt[t]:featAt[t+1]]. Packing appends each type's block
	// with one copy.
	feats  []float64
	featAt [NumNodeTypes + 1]int32
	// ints is one slab of n node types, then n type-local rows, then the
	// n+1 child offsets and the child indices of the CSR edge list:
	// node i's children are kids()[kidAt()[i]:kidAt()[i+1]], each an
	// earlier node.
	ints []int32
	n    int32
}

// NumNodes returns the number of nodes in the graph: 0 only for the zero
// Graph, which no builder returns.
func (g *Graph) NumNodes() int { return int(g.n) }

func (g *Graph) types() []int32 { return g.ints[:g.n] }
func (g *Graph) rows() []int32  { return g.ints[g.n : 2*g.n] }
func (g *Graph) kidAt() []int32 { return g.ints[2*g.n : 3*g.n+1] }
func (g *Graph) kids() []int32  { return g.ints[3*g.n+1:] }

// GraphBuilder fills a Graph whose size is known before the first node:
// how many nodes of each type, and how many child slots in all. Its
// slabs are allocated once at exactly that size — graphs are retained
// by the thousand, so slack in a slab is resident memory.
type GraphBuilder struct {
	g     *Graph
	added int32
	next  [NumNodeTypes]int32 // each type's next type-local row
}

// NewGraphBuilder starts a graph of counts[t] nodes of each type t with
// kids child slots in all.
func NewGraphBuilder(counts [NumNodeTypes]int, kids int) GraphBuilder {
	g := &Graph{}
	for t, c := range counts {
		g.featAt[t+1] = g.featAt[t] + int32(c*FeatDim(NodeType(t)))
		g.n += int32(c)
	}
	g.feats = make([]float64, g.featAt[NumNodeTypes])
	g.ints = make([]int32, 3*int(g.n)+1+kids)
	return GraphBuilder{g: g}
}

// Add appends the next node in topological order, of type t, whose
// children are the given earlier nodes in order, and returns its index
// and its zeroed feature row for the caller to fill.
func (b *GraphBuilder) Add(t NodeType, children ...int32) (int32, []float64) {
	g, i := b.g, b.added
	dim := int32(FeatDim(t))
	at := g.featAt[t] + b.next[t]*dim
	kidAt, kids := g.kidAt(), g.kids()
	if i == g.n || at == g.featAt[t+1] || int(kidAt[i])+len(children) > len(kids) {
		panic(fmt.Sprintf("encoding: GraphBuilder.Add: node %d of type %d with %d children overflows the graph's size", i, int(t), len(children)))
	}
	g.types()[i], g.rows()[i] = int32(t), b.next[t]
	kidAt[i+1] = kidAt[i] + int32(copy(kids[kidAt[i]:], children))
	b.next[t]++
	b.added++
	return i, g.feats[at : at+dim : at+dim]
}

// Graph returns the built graph; every node and child slot it was sized
// for must have been added, and there must be at least one node.
func (b *GraphBuilder) Graph() *Graph {
	g := b.g
	if g.n == 0 || b.added != g.n || int(g.kidAt()[g.n]) != len(g.kids()) {
		panic(fmt.Sprintf("encoding: GraphBuilder.Graph: %d of %d nodes added", b.added, g.n))
	}
	return g
}

// CardSource selects which cardinality annotation feeds the operator
// features — the paper's exact vs estimated variants, plus an ablation
// without cardinalities.
type CardSource int

const (
	// CardEstimated uses the optimizer's estimates (plan.Node.EstRows).
	CardEstimated CardSource = iota
	// CardExact uses true cardinalities from execution (plan.Node.TrueRows).
	CardExact
	// CardNone zeroes the cardinality feature (ablation A3).
	CardNone
)

// log1p compresses counts into model-friendly magnitude.
func logScale(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Log1p(x) / 10 // keep features roughly in [0, 2]
}

// Hardware describes the target machine with transferable relative
// features (speeds relative to a reference machine, capacities in absolute
// units). The zero value means "hardware unspecified" and yields all-zero
// hardware features, so hardware-agnostic models and datasets remain
// well-defined.
type Hardware struct {
	// RelCPU, RelSeqIO and RelRandIO are the machine's CPU, sequential-IO
	// and random-IO speeds relative to the reference machine (1 = equal,
	// 2 = twice as fast).
	RelCPU    float64
	RelSeqIO  float64
	RelRandIO float64
	// CacheMB is the effective cache size in MiB.
	CacheMB float64
	// BufferPoolPages is the buffer pool size in pages.
	BufferPoolPages float64
}

// features renders the descriptor as model inputs. Speeds enter as log
// time-multipliers (-log(rel)): the model predicts log-runtime, so a
// machine twice as fast shifts the target by a constant the network can
// combine additively. The zero value yields all-zero features.
func (h Hardware) features() [HWFeatDim]float64 {
	logInv := func(rel float64) float64 {
		if rel <= 0 {
			return 0
		}
		return -math.Log(rel)
	}
	return [HWFeatDim]float64{
		logInv(h.RelCPU),
		logInv(h.RelSeqIO),
		logInv(h.RelRandIO),
		logScale(h.CacheMB),
		logScale(h.BufferPoolPages),
	}
}

// PlanEncoder encodes annotated physical plans into transferable graphs
// for one schema. The encoder itself holds no learned state; two encoders
// over different schemas produce features with identical semantics — the
// transferability property.
type PlanEncoder struct {
	sch  *schema.Schema
	card CardSource
	hw   Hardware
}

// NewPlanEncoder creates an encoder for the schema using the cardinality
// source.
func NewPlanEncoder(sch *schema.Schema, card CardSource) *PlanEncoder {
	return &PlanEncoder{sch: sch, card: card}
}

// Key is the comparable identity of everything an encoded graph depends
// on besides the plan itself: the schema's content fingerprint, the
// cardinality source and the hardware descriptor. Encoders with equal
// keys build identical graphs for the same plan — whatever model
// generation, reload or re-attach constructed them — which is what lets
// a graph memo outlive the encoder that filled it. Keys are interned:
// equal contents give the same Key, so comparing two is one pointer
// compare. The zero Key is no encoder's.
type Key struct{ c *keyContent }

type keyContent struct {
	schema string
	card   CardSource
	hw     Hardware
}

// keys interns the Keys: one entry per encoder configuration the
// process has met, which is one or two per attached schema. It is
// package-wide because equal content from distinct schemas (a database
// attached again, a model loaded again) must give one Key.
var (
	keysMu sync.Mutex
	keys   = map[keyContent]*keyContent{}
)

// Key returns the encoder's identity (see Key). It takes a lock and one
// map probe, so a caller pricing many plans over one schema takes it
// once.
func (e *PlanEncoder) Key() Key {
	c := keyContent{schema: e.sch.Fingerprint(), card: e.card, hw: e.hw}
	keysMu.Lock()
	defer keysMu.Unlock()
	if p := keys[c]; p != nil {
		return Key{p}
	}
	p := new(keyContent)
	*p = c
	// A NaN in the hardware makes the content equal to no key, itself
	// included: such a Key matches nothing, and is not stored.
	if c == c {
		keys[c] = p
	}
	return Key{p}
}

// WithHardware returns a copy of the encoder that annotates every operator
// node with the hardware descriptor, enabling cross-hardware what-if
// predictions (Section 4.3).
func (e *PlanEncoder) WithHardware(hw Hardware) *PlanEncoder {
	c := *e
	c.hw = hw
	return &c
}

// encBuild is the per-encode build state: the graph builder, the
// column-node dedup cache, and the stack of finished nodes whose parent
// is not built yet. Each node builder pushes its node; a parent takes
// the nodes pushed since it started as its children, in order, and
// replaces them with itself. The graph escapes (memos, training sets
// retain it); the rest is pooled.
type encBuild struct {
	GraphBuilder
	cols  map[query.ColumnRef]int32
	stack []int32
}

var buildPool = sync.Pool{New: func() any { return &encBuild{cols: map[query.ColumnRef]int32{}} }}

// push adds a node of type t whose children are the stack above base,
// replaces them with it, and returns its feature row to fill.
func (b *encBuild) push(t NodeType, base int) []float64 {
	id, feat := b.Add(t, b.stack[base:]...)
	b.stack = append(b.stack[:base], id)
	return feat
}

// firstSight reports (as 1 or 0) whether ref is a column the walk has not
// met before, and registers it — with no node yet (-1) — if so.
func (b *encBuild) firstSight(ref query.ColumnRef) int {
	if _, seen := b.cols[ref]; seen {
		return 0
	}
	b.cols[ref] = -1
	return 1
}

// measure walks the plan once and adds to counts and kids exactly the
// nodes of each type and the child slots encodeOp will build for it,
// counting each distinct column once.
func (b *encBuild) measure(n *plan.Node, counts *[NumNodeTypes]int, kids *int) {
	*kids += len(n.Children) + 2*len(n.Filters) + len(n.Aggregates) + len(n.GroupBy)
	counts[OpNode]++
	if n.Op == plan.SeqScan || n.Op == plan.IndexScan {
		counts[TableNode]++
		*kids++
	}
	for _, f := range n.Filters {
		counts[ColumnNode] += b.firstSight(f.Col)
	}
	if n.Join != nil {
		counts[ColumnNode] += b.firstSight(n.Join.Left) + b.firstSight(n.Join.Right)
		*kids += 2
	}
	for _, a := range n.Aggregates {
		if a.Col.Table != "" {
			counts[ColumnNode] += b.firstSight(a.Col)
			*kids++
		}
	}
	for _, gb := range n.GroupBy {
		counts[ColumnNode] += b.firstSight(gb)
	}
	counts[PredNode] += len(n.Filters)
	counts[AggNode] += len(n.Aggregates)
	for _, c := range n.Children {
		b.measure(c, counts, kids)
	}
}

// Encode builds the query graph for an optimizer-produced plan. With
// CardExact the plan must have been executed (TrueRows filled). One
// counting walk sizes the graph exactly, and a second builds it through
// a GraphBuilder; the graph may be retained indefinitely (encoded-plan
// memos, training samples).
func (e *PlanEncoder) Encode(root *plan.Node) (*Graph, error) {
	b := buildPool.Get().(*encBuild)
	var counts [NumNodeTypes]int
	kids := 0
	b.measure(root, &counts, &kids)
	b.GraphBuilder = NewGraphBuilder(counts, kids)
	var g *Graph
	err := e.encodeOp(root, b)
	if err == nil {
		g = b.Graph()
	}
	b.GraphBuilder = GraphBuilder{}
	clear(b.cols)
	b.stack = b.stack[:0]
	buildPool.Put(b)
	return g, err
}

func (e *PlanEncoder) cardOf(n *plan.Node) (float64, error) {
	switch e.card {
	case CardEstimated:
		return n.EstRows, nil
	case CardExact:
		if n.TrueRows < 0 {
			return 0, fmt.Errorf("encoding: exact cardinalities requested but plan not executed")
		}
		return n.TrueRows, nil
	case CardNone:
		return 0, nil
	default:
		return 0, fmt.Errorf("encoding: unknown cardinality source %d", int(e.card))
	}
}

// encodeOp builds the operator's subtree and then the operator itself,
// the last of its nodes.
func (e *PlanEncoder) encodeOp(n *plan.Node, b *encBuild) error {
	card, err := e.cardOf(n)
	if err != nil {
		return err
	}
	base := len(b.stack)
	// Children: plan inputs first.
	for _, c := range n.Children {
		if err := e.encodeOp(c, b); err != nil {
			return err
		}
	}
	// Scans attach their table node and predicate nodes.
	if n.Op == plan.SeqScan || n.Op == plan.IndexScan {
		if err := e.tableNode(n.Table, b); err != nil {
			return err
		}
	}
	for _, f := range n.Filters {
		if err := e.predNode(f, b); err != nil {
			return err
		}
	}
	// Join conditions attach the joined column nodes.
	if n.Join != nil {
		for _, side := range []query.ColumnRef{n.Join.Left, n.Join.Right} {
			if err := e.columnNode(side, b); err != nil {
				return err
			}
		}
	}
	// Aggregates and group-by columns.
	for _, a := range n.Aggregates {
		if err := e.aggNode(a, b); err != nil {
			return err
		}
	}
	for _, gb := range n.GroupBy {
		if err := e.columnNode(gb, b); err != nil {
			return err
		}
	}
	feat := b.push(OpNode, base)
	feat[int(n.Op)] = 1
	if n.LookupJoin {
		feat[plan.NumOperators] = 1
	}
	if e.card != CardNone {
		feat[plan.NumOperators+1] = logScale(card)
	}
	feat[plan.NumOperators+2] = logScale(n.Width)
	if n.Op == plan.IndexScan {
		tm := e.sch.Table(n.Table)
		if tm != nil {
			height := math.Ceil(math.Log(math.Max(float64(tm.RowCount), 2)) / math.Log(256))
			feat[plan.NumOperators+3] = height / 4
		}
	}
	hwf := e.hw.features()
	copy(feat[plan.NumOperators+4:], hwf[:])
	return nil
}

func (e *PlanEncoder) tableNode(table string, b *encBuild) error {
	tm := e.sch.Table(table)
	if tm == nil {
		return fmt.Errorf("encoding: unknown table %s", table)
	}
	feat := b.push(TableNode, len(b.stack))
	feat[0] = logScale(float64(tm.RowCount))
	feat[1] = logScale(float64(tm.PageCount))
	feat[2] = logScale(float64(tm.RowWidth()))
	return nil
}

// columnNode pushes ref's column node, building it unless an earlier use did.
func (e *PlanEncoder) columnNode(ref query.ColumnRef, b *encBuild) error {
	if id, ok := b.cols[ref]; ok && id >= 0 {
		b.stack = append(b.stack, id)
		return nil
	}
	tm := e.sch.Table(ref.Table)
	if tm == nil {
		return fmt.Errorf("encoding: unknown table %s", ref.Table)
	}
	cm := tm.Column(ref.Column)
	if cm == nil {
		return fmt.Errorf("encoding: unknown column %s", ref)
	}
	feat := b.push(ColumnNode, len(b.stack))
	feat[int(cm.Type)] = 1
	feat[schema.NumDataTypes] = logScale(float64(cm.DistinctCount))
	feat[schema.NumDataTypes+1] = cm.NullFrac
	feat[schema.NumDataTypes+2] = float64(cm.Type.Width()) / 16
	b.cols[ref] = b.stack[len(b.stack)-1]
	return nil
}

func (e *PlanEncoder) predNode(f query.Filter, b *encBuild) error {
	base := len(b.stack)
	if err := e.columnNode(f.Col, b); err != nil {
		return err
	}
	b.push(PredNode, base)[int(f.Op)] = 1
	return nil
}

func (e *PlanEncoder) aggNode(agg query.Aggregate, b *encBuild) error {
	base := len(b.stack)
	if agg.Col.Table != "" {
		if err := e.columnNode(agg.Col, b); err != nil {
			return err
		}
	}
	b.push(AggNode, base)[int(agg.Func)] = 1
	return nil
}
