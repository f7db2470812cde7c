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

// FeatDim returns the feature dimensionality of a node type.
func FeatDim(t NodeType) int {
	switch t {
	case OpNode:
		return OpFeatDim
	case TableNode:
		return TableFeatDim
	case ColumnNode:
		return ColumnFeatDim
	case PredNode:
		return PredFeatDim
	case AggNode:
		return AggFeatDim
	default:
		panic(fmt.Sprintf("encoding: unknown node type %d", int(t)))
	}
}

// GNode is one node of the encoded query graph. Children point *into* the
// node: hidden states flow child -> parent, and the plan root is the graph
// root (the paper's bottom-up message passing on the DAG).
type GNode struct {
	Type     NodeType
	Feat     []float64
	Children []*GNode
	// Index is the node's position in its graph's Nodes, stamped when the
	// graph takes the node. A node belongs to exactly one graph (column
	// nodes are shared within a query, never across queries), so the
	// model's hidden-state table and BatchGraph's packing both find a
	// child by this index instead of a pointer-keyed map — through
	// Graph.Position, which checks it rather than trusting it.
	Index int
}

// Graph is an encoded query: a DAG rooted at the plan's root operator.
// Column nodes are shared between the predicates and aggregates that
// reference them, so the structure is a DAG, not a tree.
type Graph struct {
	Root *GNode
	// Nodes lists every node exactly once, children before parents
	// (topological order), which the model uses for message passing.
	Nodes []*GNode
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

// colCachePool recycles the transient per-encode column-node cache.
// The graph itself escapes (memos, training sets retain it), so only
// this build scratch is poolable.
var colCachePool = sync.Pool{New: func() any { return map[query.ColumnRef]*GNode{} }}

// encBuild is the per-encode build state: the graph under construction,
// the column-node dedup cache, and the three slabs every node, feature
// vector and child slice of the graph is carved from. Graphs are retained
// whole, so slab lifetime is graph lifetime.
type encBuild struct {
	g     *Graph
	cols  map[query.ColumnRef]*GNode
	nodes []GNode
	feats []float64
	kids  []*GNode
}

// firstSight reports (as 1 or 0) whether ref is a column the walk has not
// met before, and registers it — with no node yet — if so.
func (b *encBuild) firstSight(ref query.ColumnRef) int {
	if _, seen := b.cols[ref]; seen {
		return 0
	}
	b.cols[ref] = nil
	return 1
}

// measure walks the plan once and returns exactly what encodeOp will
// carve for it — nodes, feature floats and child slots — counting each
// distinct column once: graphs are retained by the thousand, so slack in
// a slab is resident memory.
func (b *encBuild) measure(n *plan.Node) (nodes, feats, kids int) {
	nodes, feats = 1, OpFeatDim
	kids = len(n.Children) + 2*len(n.Filters) + len(n.Aggregates) + len(n.GroupBy)
	cols := 0
	if n.Op == plan.SeqScan || n.Op == plan.IndexScan {
		nodes, feats, kids = nodes+1, feats+TableFeatDim, kids+1
	}
	for _, f := range n.Filters {
		cols += b.firstSight(f.Col)
	}
	if n.Join != nil {
		cols, kids = cols+b.firstSight(n.Join.Left)+b.firstSight(n.Join.Right), kids+2
	}
	for _, a := range n.Aggregates {
		if a.Col.Table != "" {
			cols, kids = cols+b.firstSight(a.Col), kids+1
		}
	}
	for _, gb := range n.GroupBy {
		cols += b.firstSight(gb)
	}
	nodes += len(n.Filters) + len(n.Aggregates) + cols
	feats += len(n.Filters)*PredFeatDim + len(n.Aggregates)*AggFeatDim + cols*ColumnFeatDim
	for _, c := range n.Children {
		cn, cf, ck := b.measure(c)
		nodes, feats, kids = nodes+cn, feats+cf, kids+ck
	}
	return nodes, feats, kids
}

// newNode carves one node with a zeroed featDim-wide feature vector and
// room for childCap children out of the slabs.
func (b *encBuild) newNode(t NodeType, featDim, childCap int) *GNode {
	n := &b.nodes[0]
	n.Type, n.Feat, n.Children = t, b.feats[:featDim:featDim], b.kids[:0:childCap]
	b.nodes, b.feats, b.kids = b.nodes[1:], b.feats[featDim:], b.kids[childCap:]
	return n
}

// Encode builds the query graph for an optimizer-produced plan. With
// CardExact the plan must have been executed (TrueRows filled). It is
// the only graph builder: the graph is heap-allocated — three slabs and
// the node index, sized exactly by one counting walk — and may be retained
// indefinitely (encoded-plan memos, training samples).
func (e *PlanEncoder) Encode(root *plan.Node) (*Graph, error) {
	b := encBuild{g: &Graph{}, cols: colCachePool.Get().(map[query.ColumnRef]*GNode)}
	nodes, feats, kids := b.measure(root)
	b.nodes, b.feats, b.kids = make([]GNode, nodes), make([]float64, feats), make([]*GNode, kids)
	b.g.Nodes = make([]*GNode, 0, nodes)
	rootNode, err := e.encodeOp(root, &b)
	clear(b.cols)
	colCachePool.Put(b.cols)
	if err != nil {
		return nil, err
	}
	b.g.Root = rootNode
	return b.g, nil
}

// add appends the node to the topological order (children must already be
// added), stamps its Index and returns it. It is the only writer of
// GNode.Index.
func (g *Graph) add(n *GNode) *GNode {
	n.Index = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n
}

// Position returns n's index in g.Nodes, provided n really is the node
// g holds there and sits below limit — the two facts a consumer walking
// Nodes in order needs of a child (limit = the parent's own position:
// the child's result is already computed) and of the root (limit =
// len(g.Nodes)). A node that was never added, belongs to another graph,
// or comes at or after limit reports false: the graph is not the
// topologically ordered, indexed graph Encode builds, and the caller
// panics naming it.
func (g *Graph) Position(n *GNode, limit int) (int, bool) {
	i := n.Index
	return i, i >= 0 && i < limit && i < len(g.Nodes) && g.Nodes[i] == n
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

func (e *PlanEncoder) encodeOp(n *plan.Node, b *encBuild) (*GNode, error) {
	// The child count is fully determined before recursion, so the child
	// slice is allocated exactly once at exact capacity.
	childCap := len(n.Children) + len(n.Filters) + len(n.Aggregates) + len(n.GroupBy)
	if n.Op == plan.SeqScan || n.Op == plan.IndexScan {
		childCap++
	}
	if n.Join != nil {
		childCap += 2
	}
	node := b.newNode(OpNode, OpFeatDim, childCap)
	node.Feat[int(n.Op)] = 1
	if n.LookupJoin {
		node.Feat[plan.NumOperators] = 1
	}
	card, err := e.cardOf(n)
	if err != nil {
		return nil, err
	}
	if e.card != CardNone {
		node.Feat[plan.NumOperators+1] = logScale(card)
	}
	node.Feat[plan.NumOperators+2] = logScale(n.Width)
	if n.Op == plan.IndexScan {
		tm := e.sch.Table(n.Table)
		if tm != nil {
			height := math.Ceil(math.Log(math.Max(float64(tm.RowCount), 2)) / math.Log(256))
			node.Feat[plan.NumOperators+3] = height / 4
		}
	}
	hwf := e.hw.features()
	copy(node.Feat[plan.NumOperators+4:], hwf[:])

	// Children: plan inputs first.
	for _, c := range n.Children {
		child, err := e.encodeOp(c, b)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, child)
	}
	// Scans attach their table node and predicate nodes.
	if n.Op == plan.SeqScan || n.Op == plan.IndexScan {
		tn, err := e.tableNode(n.Table, b)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, tn)
	}
	for _, f := range n.Filters {
		pn, err := e.predNode(f, b)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, pn)
	}
	// Join conditions attach the joined column nodes.
	if n.Join != nil {
		for _, side := range []query.ColumnRef{n.Join.Left, n.Join.Right} {
			cn, err := e.columnNode(side, b)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, cn)
		}
	}
	// Aggregates and group-by columns.
	for _, a := range n.Aggregates {
		an, err := e.aggNode(a, b)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, an)
	}
	for _, gb := range n.GroupBy {
		cn, err := e.columnNode(gb, b)
		if err != nil {
			return nil, err
		}
		node.Children = append(node.Children, cn)
	}
	return b.g.add(node), nil
}

func (e *PlanEncoder) tableNode(table string, b *encBuild) (*GNode, error) {
	tm := e.sch.Table(table)
	if tm == nil {
		return nil, fmt.Errorf("encoding: unknown table %s", table)
	}
	n := b.newNode(TableNode, TableFeatDim, 0)
	n.Feat[0] = logScale(float64(tm.RowCount))
	n.Feat[1] = logScale(float64(tm.PageCount))
	n.Feat[2] = logScale(float64(tm.RowWidth()))
	return b.g.add(n), nil
}

func (e *PlanEncoder) columnNode(ref query.ColumnRef, b *encBuild) (*GNode, error) {
	if n := b.cols[ref]; n != nil {
		return n, nil
	}
	tm := e.sch.Table(ref.Table)
	if tm == nil {
		return nil, fmt.Errorf("encoding: unknown table %s", ref.Table)
	}
	cm := tm.Column(ref.Column)
	if cm == nil {
		return nil, fmt.Errorf("encoding: unknown column %s", ref)
	}
	n := b.newNode(ColumnNode, ColumnFeatDim, 0)
	n.Feat[int(cm.Type)] = 1
	n.Feat[schema.NumDataTypes] = logScale(float64(cm.DistinctCount))
	n.Feat[schema.NumDataTypes+1] = cm.NullFrac
	n.Feat[schema.NumDataTypes+2] = float64(cm.Type.Width()) / 16
	b.cols[ref] = n
	return b.g.add(n), nil
}

func (e *PlanEncoder) predNode(f query.Filter, b *encBuild) (*GNode, error) {
	cn, err := e.columnNode(f.Col, b)
	if err != nil {
		return nil, err
	}
	n := b.newNode(PredNode, PredFeatDim, 1)
	n.Feat[int(f.Op)] = 1
	n.Children = append(n.Children, cn)
	return b.g.add(n), nil
}

func (e *PlanEncoder) aggNode(agg query.Aggregate, b *encBuild) (*GNode, error) {
	childCap := 0
	if agg.Col.Table != "" {
		childCap = 1
	}
	n := b.newNode(AggNode, AggFeatDim, childCap)
	n.Feat[int(agg.Func)] = 1
	if agg.Col.Table != "" {
		cn, err := e.columnNode(agg.Col, b)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cn)
	}
	return b.g.add(n), nil
}
