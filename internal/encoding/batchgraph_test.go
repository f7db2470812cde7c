package encoding

import (
	"reflect"
	"testing"
)

// bgLeaf builds a childless node of type tp with every feature set to
// fill, so slab rows are recognizable after packing.
func bgLeaf(tp NodeType, fill float64) *GNode {
	f := make([]float64, FeatDim(tp))
	for i := range f {
		f[i] = fill
	}
	return &GNode{Type: tp, Feat: f}
}

// bgNode builds a node with children (already in some graph's Nodes).
func bgNode(tp NodeType, fill float64, children ...*GNode) *GNode {
	n := bgLeaf(tp, fill)
	n.Children = children
	return n
}

// bgGraph builds a graph the way the encoder does — every node through
// Graph.add, in the order given, which is what stamps GNode.Index —
// rooted at the last node.
func bgGraph(nodes ...*GNode) *Graph {
	g := &Graph{}
	for _, n := range nodes {
		g.Root = g.add(n)
	}
	return g
}

// twoTestGraphs returns a shallow graph (op over a table) and a deeper
// one (op over op over table+pred, pred over a shared column).
func twoTestGraphs() (*Graph, *Graph) {
	t1 := bgLeaf(TableNode, 1)
	o1 := bgNode(OpNode, 2, t1)
	g1 := bgGraph(t1, o1)

	t2 := bgLeaf(TableNode, 3)
	c2 := bgLeaf(ColumnNode, 4)
	p2 := bgNode(PredNode, 5, c2)
	o2 := bgNode(OpNode, 6, t2, p2)
	o3 := bgNode(OpNode, 7, o2)
	g2 := bgGraph(t2, c2, p2, o2, o3)
	return g1, g2
}

func TestPackLayout(t *testing.T) {
	g1, g2 := twoTestGraphs()
	bg := Pack([]*Graph{g1, g2})

	if bg.NumGraphs != 2 || bg.NumNodes != 7 {
		t.Fatalf("packed %d graphs / %d nodes, want 2 / 7", bg.NumGraphs, bg.NumNodes)
	}
	if got := bg.TypeCount; got[TableNode] != 2 || got[OpNode] != 3 || got[ColumnNode] != 1 || got[PredNode] != 1 || got[AggNode] != 0 {
		t.Fatalf("type counts = %v", got)
	}
	if !reflect.DeepEqual(bg.GraphStart, []int32{0, 2, 7}) {
		t.Fatalf("GraphStart = %v", bg.GraphStart)
	}
	if !reflect.DeepEqual(bg.Roots, []int32{1, 6}) {
		t.Fatalf("Roots = %v", bg.Roots)
	}
	// Every node's slab row must hold exactly its feature vector.
	for i := 0; i < bg.NumNodes; i++ {
		tp := bg.Types[i]
		dim := FeatDim(tp)
		row := bg.Feats[tp][int(bg.TypeRow[i])*dim : (int(bg.TypeRow[i])+1)*dim]
		var want *GNode
		if i < 2 {
			want = g1.Nodes[i]
		} else {
			want = g2.Nodes[i-2]
		}
		if !reflect.DeepEqual(row, want.Feat) {
			t.Fatalf("node %d slab row = %v, want %v", i, row, want.Feat)
		}
	}
	// Edges are offset-shifted into global indices: g2's root (global 6)
	// points at g2's inner op (global 5), which points at table 2 and
	// pred 4.
	if !reflect.DeepEqual(bg.ChildrenOf(6), []int32{5}) {
		t.Fatalf("children of 6 = %v", bg.ChildrenOf(6))
	}
	if !reflect.DeepEqual(bg.ChildrenOf(5), []int32{2, 4}) {
		t.Fatalf("children of 5 = %v", bg.ChildrenOf(5))
	}
	if len(bg.ChildrenOf(0)) != 0 {
		t.Fatalf("leaf 0 has children %v", bg.ChildrenOf(0))
	}
}

func TestPackLevels(t *testing.T) {
	g1, g2 := twoTestGraphs()
	bg := Pack([]*Graph{g1, g2})

	// Levels: g1 op = 1; g2 pred = 1, inner op = 2, root op = 3.
	if bg.NumLevels() != 3 {
		t.Fatalf("NumLevels = %d, want 3", bg.NumLevels())
	}
	seen := map[int32]int{}
	for lvl := 1; lvl <= bg.NumLevels(); lvl++ {
		for _, i := range bg.Level(lvl) {
			if len(bg.ChildrenOf(i)) == 0 {
				t.Fatalf("level %d node %d has no children", lvl, i)
			}
			seen[i] = lvl
			for _, c := range bg.ChildrenOf(i) {
				if cl, ok := seen[c]; ok && cl >= lvl {
					t.Fatalf("child %d (level %d) not below parent %d (level %d)", c, cl, i, lvl)
				}
			}
		}
	}
	if !reflect.DeepEqual(bg.Level(1), []int32{1, 4}) { // within-level global order
		t.Fatalf("Level(1) = %v", bg.Level(1))
	}
	if !reflect.DeepEqual(bg.Level(2), []int32{5}) || !reflect.DeepEqual(bg.Level(3), []int32{6}) {
		t.Fatalf("Level(2)/Level(3) = %v / %v", bg.Level(2), bg.Level(3))
	}
	// Exactly the nodes with children are level-ordered.
	withChildren := 0
	for i := int32(0); i < int32(bg.NumNodes); i++ {
		if len(bg.ChildrenOf(i)) > 0 {
			withChildren++
		}
	}
	if len(bg.LevelOrder) != withChildren {
		t.Fatalf("LevelOrder holds %d nodes, want %d", len(bg.LevelOrder), withChildren)
	}
}

// TestPackReusesBuffers repacks one BatchGraph across batches of
// different shapes and checks every repack matches a fresh Pack — the
// slab-reuse path must not leak state between batches.
func TestPackReusesBuffers(t *testing.T) {
	g1, g2 := twoTestGraphs()
	batches := [][]*Graph{
		{g1, g2},
		{g2},
		{g1},
		{g2, g2, g1},
	}
	// sameVals compares content, treating a truncated reused slab and a
	// fresh nil slab as equal.
	sameVals := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	reused := new(BatchGraph)
	for bi, gs := range batches {
		reused.Pack(gs)
		fresh := Pack(gs)
		got, want := *reused, *fresh
		for tp := range got.Feats {
			if !sameVals(got.Feats[tp], want.Feats[tp]) {
				t.Fatalf("repack %d type %d slab = %v, want %v", bi, tp, got.Feats[tp], want.Feats[tp])
			}
		}
		// Scratch fields are private state; compare the packed layout.
		if got.NumGraphs != want.NumGraphs || got.NumNodes != want.NumNodes ||
			got.TypeCount != want.TypeCount ||
			!reflect.DeepEqual(got.Types, want.Types) ||
			!reflect.DeepEqual(got.TypeRow, want.TypeRow) ||
			!reflect.DeepEqual(got.ChildStart, want.ChildStart) ||
			!reflect.DeepEqual(got.Children, want.Children) ||
			!reflect.DeepEqual(got.GraphStart, want.GraphStart) ||
			!reflect.DeepEqual(got.Roots, want.Roots) ||
			!reflect.DeepEqual(got.LevelOrder, want.LevelOrder) ||
			!reflect.DeepEqual(got.LevelStart, want.LevelStart) {
			t.Fatalf("repack %d diverges from fresh pack:\n got %+v\nwant %+v", bi, got, want)
		}
	}
}

func TestPackPanics(t *testing.T) {
	mustPanic := func(name string, gs []*Graph) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Pack(%s) did not panic", name)
			}
		}()
		Pack(gs)
	}
	mustPanic("empty graph", []*Graph{{}})

	// Parent listed before its child violates topological order.
	leaf := bgLeaf(TableNode, 1)
	root := bgNode(OpNode, 2, leaf)
	nonTopo := bgGraph(root, leaf)
	nonTopo.Root = root
	mustPanic("non-topological", []*Graph{nonTopo})

	// Nodes that never went through Graph.add carry no index: every
	// child claims position 0, which is not below its parent's.
	leaf, mid := bgLeaf(TableNode, 1), bgLeaf(PredNode, 2)
	root = bgNode(OpNode, 3, mid, leaf)
	mustPanic("unindexed", []*Graph{{Root: root, Nodes: []*GNode{leaf, mid, root}}})

	// A child that belongs to another graph is not this graph's node at
	// that index, even when the index itself is plausible.
	g1, _ := twoTestGraphs()
	foreign := bgGraph(bgLeaf(TableNode, 1), bgNode(OpNode, 2, g1.Nodes[0]))
	mustPanic("foreign child", []*Graph{foreign})

	// So is a root that is not one of the graph's nodes.
	g1, _ = twoTestGraphs()
	g1.Root = bgNode(OpNode, 2, g1.Nodes[0])
	mustPanic("root missing", []*Graph{g1})

	// Feature width must match the node type.
	bad := &GNode{Type: TableNode, Feat: make([]float64, 1)}
	mustPanic("bad feature width", []*Graph{{Root: bad, Nodes: []*GNode{bad}}})
}
