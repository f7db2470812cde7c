package encoding

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// bgNode is one node of a hand-built graph: its type, the value every
// one of its features is set to (so slab rows are recognizable after
// packing), and its children as indices of earlier nodes.
type bgNode struct {
	tp   NodeType
	fill float64
	kids []int32
}

// bgGraph builds a graph the way the encoder does — through a
// GraphBuilder, in the order given — rooted at the last node.
func bgGraph(nodes ...bgNode) *Graph {
	var counts [NumNodeTypes]int
	kids := 0
	for _, n := range nodes {
		counts[n.tp]++
		kids += len(n.kids)
	}
	b := NewGraphBuilder(counts, kids)
	for _, n := range nodes {
		_, feat := b.Add(n.tp, n.kids...)
		for i := range feat {
			feat[i] = n.fill
		}
	}
	return b.Graph()
}

// twoTestGraphs returns a shallow graph (op over a table) and a deeper
// one (op over op over table+pred, pred over a shared column).
func twoTestGraphs() (*Graph, *Graph) {
	g1 := bgGraph(bgNode{TableNode, 1, nil}, bgNode{OpNode, 2, []int32{0}})
	g2 := bgGraph(
		bgNode{TableNode, 3, nil},
		bgNode{ColumnNode, 4, nil},
		bgNode{PredNode, 5, []int32{1}},
		bgNode{OpNode, 6, []int32{0, 2}},
		bgNode{OpNode, 7, []int32{3}},
	)
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
		want, li := g1, i
		if i >= 2 {
			want, li = g2, i-2
		}
		if !reflect.DeepEqual(row, want.feat(li)) {
			t.Fatalf("node %d slab row = %v, want %v", i, row, want.feat(li))
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

// TestPackLayoutOfEncodedGraphs packs real plans' graphs, in batches
// of several sizes through one retained BatchGraph, and checks every
// packed node against its graph's own accessors: type, feature row bit
// for bit, children shifted by the graph's offset, root, and the levels
// recomputed from the children. The zero-shot oracles read graphs
// through a one-graph Pack, so this is Pack's independent check on the
// graphs Encode builds.
func TestPackLayoutOfEncodedGraphs(t *testing.T) {
	var gs []*Graph
	for _, mk := range []func(float64) (*storage.Database, error){datagen.IMDBLike, datagen.SSBLike, datagen.TPCHLike} {
		db, err := mk(0.02)
		if err != nil {
			t.Fatal(err)
		}
		st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
		qs, err := query.NewGenerator(db, query.DefaultGenConfig(), 5).Generate(40)
		if err != nil {
			t.Fatal(err)
		}
		enc := NewPlanEncoder(db.Schema, CardEstimated)
		for _, q := range qs {
			p, err := optimizer.New(db.Schema, st, optimizer.RelevantIndexes(q), optimizer.DefaultCostParams()).Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			g, err := enc.Encode(p)
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
	}
	bg := new(BatchGraph)
	for _, size := range []int{1, 7, 64, len(gs)} {
		for lo := 0; lo < len(gs); lo += size {
			batch := gs[lo:min(lo+size, len(gs))]
			bg.Pack(batch)
			if bg.NumGraphs != len(batch) || len(bg.GraphStart) != len(batch)+1 || len(bg.Roots) != len(batch) {
				t.Fatalf("batch of %d: %d graphs, %d segment starts, %d roots", len(batch), bg.NumGraphs, len(bg.GraphStart), len(bg.Roots))
			}
			var rows [NumNodeTypes]int
			levels := make([]int32, 0, bg.NumNodes)
			for gi, g := range batch {
				base := int(bg.GraphStart[gi])
				if int(bg.GraphStart[gi+1])-base != g.NumNodes() || int(bg.Roots[gi]) != base+g.NumNodes()-1 {
					t.Fatalf("graph %d of %d: segment [%d, %d) root %d, graph of %d nodes", gi, len(batch), base, bg.GraphStart[gi+1], bg.Roots[gi], g.NumNodes())
				}
				for i := 0; i < g.NumNodes(); i++ {
					gl := int32(base + i)
					tp, want := bg.Types[gl], g.feat(i)
					if tp != g.nodeType(i) || int(bg.TypeRow[gl]) != rows[tp] {
						t.Fatalf("graph %d node %d: type %d row %d, graph type %d, next row %d", gi, i, tp, bg.TypeRow[gl], g.nodeType(i), rows[tp])
					}
					rows[tp]++
					dim := FeatDim(tp)
					row := bg.Feats[tp][int(bg.TypeRow[gl])*dim : (int(bg.TypeRow[gl])+1)*dim]
					for k := range want {
						if math.Float64bits(row[k]) != math.Float64bits(want[k]) {
							t.Fatalf("graph %d node %d feature %d: %v, graph %v", gi, i, k, row[k], want[k])
						}
					}
					kids, wantKids := bg.ChildrenOf(gl), g.children(i)
					if len(kids) != len(wantKids) {
						t.Fatalf("graph %d node %d: %d children, graph %d", gi, i, len(kids), len(wantKids))
					}
					lvl := int32(0)
					for k, c := range kids {
						if c != int32(base)+wantKids[k] {
							t.Fatalf("graph %d node %d child %d: %d, graph %d at offset %d", gi, i, k, c, wantKids[k], base)
						}
						lvl = max(lvl, levels[c]+1)
					}
					levels = append(levels, lvl)
				}
			}
			if bg.NumNodes != len(levels) || bg.TypeCount != rows {
				t.Fatalf("%d nodes with type counts %v, walked %d with %v", bg.NumNodes, bg.TypeCount, len(levels), rows)
			}
			top := int32(0)
			for _, l := range levels {
				top = max(top, l)
			}
			var order []int32
			for k := int32(1); k <= top; k++ {
				for i, l := range levels {
					if l == k {
						order = append(order, int32(i))
					}
				}
			}
			if bg.NumLevels() != int(top) || !reflect.DeepEqual(bg.LevelOrder, order) {
				t.Fatalf("batch of %d: %d levels ordered %v, the children give %d ordered %v", len(batch), bg.NumLevels(), bg.LevelOrder, top, order)
			}
		}
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

	// A child at or after its parent's position violates topological
	// order, and so does one outside the graph.
	for _, kid := range []int32{1, 0, -1} {
		mustPanic(fmt.Sprintf("child %d of node 0", kid), []*Graph{bgGraph(bgNode{OpNode, 2, []int32{kid}}, bgNode{TableNode, 1, nil})})
	}
	g1, g2 := twoTestGraphs()
	mustPanic("nil graph", []*Graph{g1, nil, g2})
}
