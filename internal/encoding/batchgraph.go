package encoding

import "fmt"

// BatchGraph packs N encoded query graphs into one disjoint super-graph
// so a graph network can run message passing and the per-graph readout
// vectorized over the whole batch — one fused forward pass instead of N.
//
// The packing layout:
//
//   - Node features concatenate per node type: Feats[t] is the row-major
//     (TypeCount[t] x FeatDim(t)) matrix of every type-t node across all
//     graphs, so each node-type encoder MLP runs once on its whole slab.
//   - Nodes get global indices in graph-major order, preserving each
//     graph's topological order (children before parents). Types[i] and
//     TypeRow[i] locate node i's feature row; edges are offset-shifted
//     into these global indices and stored in CSR form
//     (ChildStart/Children).
//   - GraphStart is the per-graph segment index: graph g owns global
//     nodes [GraphStart[g], GraphStart[g+1]), and Roots[g] is its root —
//     what the readout (or a flat-sum pooling) gathers per graph.
//   - Combine steps are grouped by topological level (leaves are level
//     0; a parent sits one above its deepest child), so every node of a
//     level runs through the combine MLP in one fused call. LevelOrder
//     lists the nodes with children, level by level ascending, with
//     LevelStart marking the segments; within a level nodes keep global
//     order, which makes the fused execution order deterministic.
//
// Because all rows of a slab go through the exact same per-row tensor
// operations, a packed forward pass is bitwise identical to running the
// member graphs one at a time.
type BatchGraph struct {
	NumGraphs int
	NumNodes  int

	// Feats[t] holds TypeCount[t] rows of FeatDim(t) features.
	Feats     [NumNodeTypes][]float64
	TypeCount [NumNodeTypes]int

	// Per global node: type, row within the type slab.
	Types   []NodeType
	TypeRow []int32

	// CSR edges in global indices: children of node i are
	// Children[ChildStart[i]:ChildStart[i+1]].
	ChildStart []int32
	Children   []int32

	// Per-graph segments and roots.
	GraphStart []int32 // len NumGraphs+1
	Roots      []int32 // len NumGraphs

	// Level grouping of nodes that have children (level >= 1).
	LevelOrder []int32
	LevelStart []int32 // level k's segment is [LevelStart[k-1], LevelStart[k])

	// scratch reused across repacks
	levels []int32
	counts []int32
}

// Pack packs graphs into a fresh BatchGraph. Use the method form on a
// retained BatchGraph to reuse its buffers across batches.
func Pack(gs []*Graph) *BatchGraph {
	bg := new(BatchGraph)
	bg.Pack(gs)
	return bg
}

// Pack repacks bg from the graphs, reusing previously grown buffers so
// steady-state packing allocates nothing. Each graph's feature blocks go
// over with one copy per node type and its indices are offset into the
// batch: a node's global index is its graph's first global index plus
// its own, its row its type's row count before the graph plus its own,
// and the root is the graph's last node. A graph with no nodes, or a
// child that is not an earlier node of its graph, is a programming error
// and panics.
func (bg *BatchGraph) Pack(gs []*Graph) {
	bg.NumGraphs = len(gs)
	bg.Types = bg.Types[:0]
	bg.TypeRow = bg.TypeRow[:0]
	bg.ChildStart = bg.ChildStart[:0]
	bg.Children = bg.Children[:0]
	bg.GraphStart = append(bg.GraphStart[:0], 0)
	bg.Roots = bg.Roots[:0]
	bg.levels = bg.levels[:0]
	for t := range bg.Feats {
		bg.Feats[t] = bg.Feats[t][:0]
		bg.TypeCount[t] = 0
	}
	maxLevel := int32(0)
	for gi, g := range gs {
		if g == nil || g.n == 0 {
			panic(fmt.Sprintf("encoding: Pack: graph %d has no nodes", gi))
		}
		base, kidBase := int32(len(bg.Types)), int32(len(bg.Children))
		var rowBase [NumNodeTypes]int32
		for t := range bg.Feats {
			rowBase[t] = int32(bg.TypeCount[t])
			block := g.feats[g.featAt[t]:g.featAt[t+1]]
			bg.Feats[t] = append(bg.Feats[t], block...)
			bg.TypeCount[t] += len(block) / FeatDim(NodeType(t))
		}
		rows, kidAt, kids := g.rows(), g.kidAt(), g.kids()
		for li, t := range g.types() {
			bg.Types = append(bg.Types, NodeType(t))
			bg.TypeRow = append(bg.TypeRow, rowBase[t]+rows[li])
			bg.ChildStart = append(bg.ChildStart, kidBase+kidAt[li])
			lvl := int32(0)
			for _, c := range kids[kidAt[li]:kidAt[li+1]] {
				if c < 0 || int(c) >= li {
					panic(fmt.Sprintf("encoding: Pack: graph %d: child %d of node %d is not an earlier node of the graph", gi, c, li))
				}
				c += base
				bg.Children = append(bg.Children, c)
				if l := bg.levels[c] + 1; l > lvl {
					lvl = l
				}
			}
			bg.levels = append(bg.levels, lvl)
			if lvl > maxLevel {
				maxLevel = lvl
			}
		}
		bg.Roots = append(bg.Roots, base+g.n-1)
		bg.GraphStart = append(bg.GraphStart, int32(len(bg.Types)))
	}
	bg.NumNodes = len(bg.Types)
	bg.ChildStart = append(bg.ChildStart, int32(len(bg.Children)))

	// Counting sort of level>=1 nodes into LevelOrder, stable in global
	// order within a level.
	bg.counts = bg.counts[:0]
	for k := int32(0); k <= maxLevel; k++ {
		bg.counts = append(bg.counts, 0)
	}
	for _, l := range bg.levels {
		bg.counts[l]++
	}
	bg.LevelStart = append(bg.LevelStart[:0], 0)
	run := int32(0)
	for k := int32(1); k <= maxLevel; k++ {
		n := bg.counts[k]
		bg.counts[k] = run // repurpose as the level's write cursor
		run += n
		bg.LevelStart = append(bg.LevelStart, run)
	}
	if cap(bg.LevelOrder) < int(run) {
		bg.LevelOrder = make([]int32, run)
	} else {
		bg.LevelOrder = bg.LevelOrder[:run]
	}
	for i, l := range bg.levels {
		if l > 0 {
			bg.LevelOrder[bg.counts[l]] = int32(i)
			bg.counts[l]++
		}
	}
}

// NumLevels returns the number of combine levels (0 when no node has
// children).
func (bg *BatchGraph) NumLevels() int { return len(bg.LevelStart) - 1 }

// Level returns the global indices of level-k nodes (k in
// [1, NumLevels()]), every one of which has at least one child.
func (bg *BatchGraph) Level(k int) []int32 {
	return bg.LevelOrder[bg.LevelStart[k-1]:bg.LevelStart[k]]
}

// ChildrenOf returns node i's children as global indices, in the
// original per-graph child order.
func (bg *BatchGraph) ChildrenOf(i int32) []int32 {
	return bg.Children[bg.ChildStart[i]:bg.ChildStart[i+1]]
}
