package zeroshot

import (
	"math"
	"slices"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
)

// The per-sample tape trainer the packed one replaced, kept as its
// oracle: forward and trainStep verbatim, the shard loop serial, and
// each shard's gradients summed onto +0 and folded into Param.Grad in
// shard order — what the trainer's private gradient sets did. It
// reproduces testdata/train.golden (TestTrainGoldensFromTapeOracle), and
// the packed trainer is pinned to it element by element
// (TestPackedGradientsMatchTape).

// tapeScratch is one worker's state: a recycled tape, the one-graph
// packing forward reads a graph's nodes through, forward's table of
// per-node hidden states (indexed by node) with its child-gathering
// buffer, and a reusable 1x1 target tensor.
type tapeScratch struct {
	tape   *nn.Tape
	one    [1]*encoding.Graph
	bg     encoding.BatchGraph
	hidden []*nn.Var
	kids   []*nn.Var
	target *nn.Tensor
}

func newTapeScratch() *tapeScratch {
	return &tapeScratch{tape: nn.NewTape(), target: nn.NewTensor(1, 1)}
}

// forward runs the graph network on ts's tape and returns the predicted
// log-runtime as a 1x1 Var. The graph's nodes are read from a packing of
// it alone, which panics on a child that is not an earlier node.
func (m *Model) forward(ts *tapeScratch, g *encoding.Graph) *nn.Var {
	tp := ts.tape
	ts.one[0] = g
	bg := &ts.bg
	bg.Pack(ts.one[:])
	hidden := slices.Grow(ts.hidden[:0], bg.NumNodes)[:bg.NumNodes]
	ts.hidden = hidden
	for i := range hidden {
		typ := bg.Types[i]
		dim := encoding.FeatDim(typ)
		h := m.encoders[typ].Apply(tp, tp.ConstRow(bg.Feats[typ][int(bg.TypeRow[i])*dim:][:dim]))
		if kids := bg.ChildrenOf(int32(i)); !m.cfg.FlatSum && len(kids) > 0 {
			ts.kids = ts.kids[:0]
			for _, c := range kids {
				ts.kids = append(ts.kids, hidden[c])
			}
			h = m.combine.Apply(tp, tp.Concat(h, tp.Sum(ts.kids...)))
		}
		hidden[i] = h
	}
	var root *nn.Var
	if m.cfg.FlatSum {
		root = tp.ScaleVar(tp.Sum(hidden...), 1/float64(len(hidden)))
	} else {
		root = hidden[bg.Roots[0]]
	}
	return m.readout.Apply(tp, root)
}

// tapePredict is the tape's prediction for one plan: the reference the
// fused pass is pinned to.
func (m *Model) tapePredict(g *encoding.Graph) float64 {
	out := m.forward(newTapeScratch(), g)
	return runtimeFromLog(out.Val.Data[0])
}

// trainStep runs one sample's forward+backward on the warm tape,
// accumulating into the parameters' Grad, and returns the sample loss.
func (m *Model) trainStep(ts *tapeScratch, s Sample) float64 {
	ts.tape.Reset()
	out := m.forward(ts, s.Graph)
	ts.target.Data[0] = math.Log(s.RuntimeSec)
	loss := ts.tape.HuberLoss(out, ts.target, huberDelta)
	ts.tape.Backward(loss)
	return loss.Val.Data[0]
}

// tapeMinibatch adds one minibatch's gradients to the parameters' Grad as
// the per-sample trainer did, and returns epochLoss plus its shard
// losses: per shard, the running totals are set aside, the shard's
// samples accumulate onto zeroed gradients, and the totals then take
// the shard's sums.
func (m *Model) tapeMinibatch(ts *tapeScratch, samples []Sample, mb []int, epochLoss float64) float64 {
	params := m.Params()
	saved := make([][]float64, len(params))
	shards := min(len(mb), maxGradShards)
	for s := 0; s < shards; s++ {
		for i, p := range params {
			saved[i] = append(saved[i][:0], p.Grad.Data...)
			p.Grad.Zero()
		}
		lo, hi := shardBounds(len(mb), shards, s)
		loss := 0.0
		for _, idx := range mb[lo:hi] {
			loss += m.trainStep(ts, samples[idx])
		}
		for i, p := range params {
			for j, v := range p.Grad.Data {
				saved[i][j] += v
			}
			copy(p.Grad.Data, saved[i])
		}
		epochLoss += loss
	}
	return epochLoss
}

// tapeTrain is Model.train on the tape: the same shuffles, minibatches
// and Adam steps, and the loss curve it returns.
func (m *Model) tapeTrain(samples []Sample, epochs int, lr float64) []float64 {
	opt := nn.NewAdam(m.Params(), lr)
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	ts := newTapeScratch()
	var losses []float64
	for epoch := 0; epoch < epochs; epoch++ {
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for base := 0; base < len(order); base += m.cfg.BatchSize {
			mb := order[base:min(base+m.cfg.BatchSize, len(order))]
			epochLoss = m.tapeMinibatch(ts, samples, mb, epochLoss)
			opt.Step(float64(len(mb)))
			opt.ZeroGrad()
		}
		losses = append(losses, epochLoss/float64(len(samples)))
	}
	return losses
}
