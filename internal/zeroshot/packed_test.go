package zeroshot

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

// handNode is one node of a hand-built graph: its type and its
// children, as indices of earlier nodes.
type handNode struct {
	typ  encoding.NodeType
	kids []int32
}

// handShapes are the DAGs whose gradient order the encoder never
// produces on its own, or produces too rarely to count on. Indices in a
// shape are node positions; the root is the last node.
var handShapes = []struct {
	name  string
	nodes []handNode
}{
	// A column with five parent slots on three levels: pred (level 1),
	// op (2), agg (1) and the root op (3), which lists it twice. Its
	// gradient takes them in descending parent index — root twice, agg,
	// op, pred — which is not level order. The aggregate type appears in
	// no other shape, so most shards have no rows for its encoder.
	{"shared-column", []handNode{
		{encoding.ColumnNode, nil},
		{encoding.TableNode, nil},
		{encoding.PredNode, []int32{0}},
		{encoding.OpNode, []int32{1, 2, 0}},
		{encoding.AggNode, []int32{0}},
		{encoding.OpNode, []int32{3, 4, 0, 0}},
	}},
	{"single-node", []handNode{{encoding.OpNode, nil}}},
	// A predicate shared by parents on levels 2 and 4.
	{"chain", []handNode{
		{encoding.ColumnNode, nil},
		{encoding.PredNode, []int32{0}},
		{encoding.PredNode, []int32{0}},
		{encoding.OpNode, []int32{1, 2}},
		{encoding.OpNode, []int32{3, 0}},
		{encoding.OpNode, []int32{4, 1, 0}},
	}},
	// The old root (op 1) has later parents (ops 2 and 3, op 2 listing it
	// twice), and a new last root sits over it. Nothing above ops 2 and 3
	// reaches the readout, so their gradients, and what they pass op 1
	// and column 0, are +0 added to real ones — as is the gradient of the
	// column that hangs off nothing at all — and the packed pass must
	// still walk them as the tape did.
	{"root-with-parents", []handNode{
		{encoding.ColumnNode, nil},
		{encoding.OpNode, []int32{0}},
		{encoding.OpNode, []int32{1, 0, 1}},
		{encoding.OpNode, []int32{1}},
		{encoding.ColumnNode, nil},
		{encoding.OpNode, []int32{1}},
	}},
	// A column that hangs off nothing: nothing it feeds reaches the
	// readout, so its gradient is +0, and the packed pass must still walk
	// it as the tape does. The root lists one child twice.
	{"dangling-column", []handNode{
		{encoding.ColumnNode, nil},
		{encoding.OpNode, []int32{0}},
		{encoding.ColumnNode, nil},
		{encoding.OpNode, []int32{1, 0, 1}},
	}},
}

// handGraph builds one graph of a shape with random features — a third
// of them exact zeros, so the zero skip is exercised everywhere.
func handGraph(rng *rand.Rand, nodes []handNode) *encoding.Graph {
	var counts [encoding.NumNodeTypes]int
	kids := 0
	for _, hn := range nodes {
		counts[hn.typ]++
		kids += len(hn.kids)
	}
	b := encoding.NewGraphBuilder(counts, kids)
	for _, hn := range nodes {
		_, feat := b.Add(hn.typ, hn.kids...)
		for k := range feat {
			if rng.Intn(3) > 0 {
				feat[k] = rng.NormFloat64()
			}
		}
	}
	return b.Graph()
}

// gradBits snapshots every parameter gradient and zeroes it.
func gradBits(m *Model) [][]float64 {
	var out [][]float64
	for _, p := range m.Params() {
		out = append(out, append([]float64(nil), p.Grad.Data...))
		p.Grad.Zero()
	}
	return out
}

// TestPackedGradientsMatchTape pins the packed trainer's order rules
// where the goldens may not reach: after each of a sequence of
// minibatches (folded onto the gradients the previous one left, as the
// optimizer never sees), every Param.Grad element and the loss must
// carry the tape oracle's bits, at GOMAXPROCS 1, 2, 4 and 8. The samples
// mix the hand-built DAGs above with real encoded plans; the minibatch
// sizes give one-sample, ragged (shards of two and one), full and
// 25-sample layouts — at GOMAXPROCS 8 the last splits into five parts of
// five, where par.Blocks once added a sixth, empty one; hidden widths 24
// and 5 reach every tile and tail of the kernels; and both architectures
// run. It needs no skip anywhere: the oracle's dA dots are Go, and on
// amd64 gc never fuses them (not at GOAMD64=v3 either), just as
// BackpropInto's assembly never does; on arm64 both sides are Go and
// fuse alike.
func TestPackedGradientsMatchTape(t *testing.T) {
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	var samples []Sample
	for rep := 0; rep < 3; rep++ {
		for _, sh := range handShapes {
			samples = append(samples, Sample{Graph: handGraph(rng, sh.nodes), RuntimeSec: math.Exp(3 * rng.NormFloat64())})
		}
	}
	samples = append(samples, gatherSamples(t, db, 24, 41, encoding.CardExact)...)
	perm := rng.Perm(len(samples))
	// First, a minibatch of single-node graphs only: no combine rows at all.
	mbs := [][]int{{1, 1 + len(handShapes), 1 + 2*len(handShapes)}}
	at := 0
	for _, size := range []int{1, 5, 11, 16, 3, 25} {
		mbs = append(mbs, perm[at:at+size])
		at = (at + size) % (len(perm) - 25)
	}

	for _, flat := range []bool{false, true} {
		for _, hidden := range []int{24, 5} {
			cfg := smallConfig()
			cfg.Hidden, cfg.FlatSum = hidden, flat
			m := New(cfg)
			var wantGrads [][][]float64
			var wantLoss []float64
			ts := newTapeScratch()
			for _, mb := range mbs {
				wantLoss = append(wantLoss, m.tapeMinibatch(ts, samples, mb, 0))
				wantGrads = append(wantGrads, gradBits(m)) // zeroes; restored below
				for i, p := range m.Params() {
					copy(p.Grad.Data, wantGrads[len(wantGrads)-1][i])
				}
			}
			gradBits(m)
			for _, workers := range []int{1, 2, 4, 8} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
					st := getTrainScratch()
					defer st.release()
					st.bind(m, samples)
					for b, mb := range mbs {
						what := fmt.Sprintf("flat=%v hidden=%d cpu=%d minibatch %d (%d samples)", flat, hidden, workers, b, len(mb))
						if got := st.step(mb, 0); math.Float64bits(got) != math.Float64bits(wantLoss[b]) {
							t.Fatalf("%s: loss %v, tape %v", what, got, wantLoss[b])
						}
						for i, p := range m.Params() {
							for j, g := range p.Grad.Data {
								if w := wantGrads[b][i][j]; math.Float64bits(g) != math.Float64bits(w) {
									t.Fatalf("%s: parameter %d element %d: packed %v (%#x), tape %v (%#x)",
										what, i, j, g, math.Float64bits(g), w, math.Float64bits(w))
								}
							}
						}
					}
					gradBits(m)
				}()
			}
		}
	}
}
