package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
)

// E2EConfig holds E2E hyperparameters.
type E2EConfig struct {
	Hidden    int
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
}

// DefaultE2EConfig returns CPU-sized hyperparameters.
func DefaultE2EConfig() E2EConfig {
	return E2EConfig{Hidden: 32, Epochs: 24, BatchSize: 16, LR: 3e-3, Seed: 1}
}

// E2ESample is one training example for E2E.
type E2ESample struct {
	Root       *encoding.E2ENode
	RuntimeSec float64
}

// E2E is the tree-structured plan model baseline (Sun & Li). The original
// combines child states with an LSTM cell; this reproduction uses an MLP
// combiner (same information flow, fewer parameters), which DESIGN.md
// records as a reduction.
type E2E struct {
	cfg     E2EConfig
	nodeMLP *nn.MLP
	combMLP *nn.MLP
	outMLP  *nn.MLP
	rng     *rand.Rand
}

// NewE2E creates a randomly initialized E2E model.
func NewE2E(cfg E2EConfig) *E2E {
	if cfg.Hidden <= 0 {
		cfg = DefaultE2EConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := cfg.Hidden
	return &E2E{
		cfg:     cfg,
		nodeMLP: nn.NewMLP(rng, encoding.E2ENodeDim, h, h),
		combMLP: nn.NewMLP(rng, 2*h, h, h),
		outMLP:  nn.NewMLP(rng, h, h, 1),
		rng:     rng,
	}
}

// Params returns all trainable parameters.
func (m *E2E) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, m.nodeMLP.Params()...)
	ps = append(ps, m.combMLP.Params()...)
	ps = append(ps, m.outMLP.Params()...)
	return ps
}

func (m *E2E) encode(tp *nn.Tape, n *encoding.E2ENode) *nn.Var {
	h := m.nodeMLP.Apply(tp, tp.Const(nn.FromSlice(n.Feat)))
	if len(n.Children) == 0 {
		return h
	}
	children := make([]*nn.Var, len(n.Children))
	for i, c := range n.Children {
		children[i] = m.encode(tp, c)
	}
	return m.combMLP.Apply(tp, tp.Concat(h, tp.Sum(children...)))
}

func (m *E2E) forward(tp *nn.Tape, root *encoding.E2ENode) *nn.Var {
	return m.outMLP.Apply(tp, m.encode(tp, root))
}

// Predict returns the predicted runtime in seconds.
func (m *E2E) Predict(root *encoding.E2ENode) float64 {
	tp := nn.NewTape()
	out := m.forward(tp, root)
	return clampExp(out.Val.Data[0])
}

// Train fits the model on log-runtime targets with Huber loss.
func (m *E2E) Train(samples []E2ESample) error {
	if len(samples) == 0 {
		return fmt.Errorf("baselines: E2E has no training samples")
	}
	opt := nn.NewAdam(m.Params(), m.cfg.LR)
	tp := nn.NewTape() // one tape for the whole run, recycled per sample
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	batch := m.cfg.BatchSize
	if batch <= 0 {
		batch = 16
	}
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		inBatch := 0
		for _, idx := range order {
			s := samples[idx]
			if s.RuntimeSec <= 0 {
				return fmt.Errorf("baselines: E2E sample with runtime %v", s.RuntimeSec)
			}
			tp.Reset()
			out := m.forward(tp, s.Root)
			loss := tp.HuberLoss(out, nn.FromSlice([]float64{math.Log(s.RuntimeSec)}), 1.0)
			tp.Backward(loss)
			inBatch++
			if inBatch == batch {
				opt.Step(float64(inBatch))
				opt.ZeroGrad()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			opt.Step(float64(inBatch))
			opt.ZeroGrad()
		}
	}
	return nil
}
