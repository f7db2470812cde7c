// Package baselines implements the workload-driven comparison models of
// the paper's evaluation:
//
//   - MSCN (Kipf et al., CIDR 2019): a multi-set convolutional network over
//     one-hot table/join/predicate sets — no plan structure.
//   - E2E (Sun & Li, VLDB 2019): a tree-structured network over physical
//     plans with one-hot leaf encodings — end-to-end learning of data and
//     system characteristics in one model.
//   - Scaled Optimizer Cost: a log-linear regression from the optimizer's
//     analytical cost estimate to the runtime.
//
// All three keep the non-transferable featurizations of their originals;
// their need for per-database training data is the paper's motivation.
package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
)

// MSCNConfig holds MSCN hyperparameters.
type MSCNConfig struct {
	Hidden    int
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
}

// DefaultMSCNConfig returns CPU-sized hyperparameters.
func DefaultMSCNConfig() MSCNConfig {
	return MSCNConfig{Hidden: 32, Epochs: 24, BatchSize: 16, LR: 3e-3, Seed: 1}
}

// MSCNSample is one training example for MSCN.
type MSCNSample struct {
	Feats      *encoding.MSCNFeatures
	RuntimeSec float64
}

// MSCN is the multi-set convolutional network baseline.
type MSCN struct {
	cfg      MSCNConfig
	tableMLP *nn.MLP
	joinMLP  *nn.MLP
	predMLP  *nn.MLP
	outMLP   *nn.MLP
	rng      *rand.Rand
}

// NewMSCN creates a randomly initialized MSCN model.
func NewMSCN(cfg MSCNConfig) *MSCN {
	if cfg.Hidden <= 0 {
		cfg = DefaultMSCNConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := cfg.Hidden
	return &MSCN{
		cfg:      cfg,
		tableMLP: nn.NewMLP(rng, encoding.MaxVocabTables, h, h),
		joinMLP:  nn.NewMLP(rng, encoding.MaxVocabJoins, h, h),
		predMLP:  nn.NewMLP(rng, encoding.MSCNPredDim, h, h),
		outMLP:   nn.NewMLP(rng, 3*h, h, 1),
		rng:      rng,
	}
}

// Params returns all trainable parameters.
func (m *MSCN) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, m.tableMLP.Params()...)
	ps = append(ps, m.joinMLP.Params()...)
	ps = append(ps, m.predMLP.Params()...)
	ps = append(ps, m.outMLP.Params()...)
	return ps
}

// pool applies the set MLP to each vector and mean-pools; an empty set
// yields a zero vector.
func (m *MSCN) pool(tp *nn.Tape, mlp *nn.MLP, set [][]float64) *nn.Var {
	if len(set) == 0 {
		return tp.Const(nn.NewTensor(1, m.cfg.Hidden))
	}
	hs := make([]*nn.Var, len(set))
	for i, v := range set {
		hs[i] = tp.ReLU(mlp.Apply(tp, tp.Const(nn.FromSlice(v))))
	}
	return tp.ScaleVar(tp.Sum(hs...), 1/float64(len(set)))
}

func (m *MSCN) forward(tp *nn.Tape, f *encoding.MSCNFeatures) *nn.Var {
	t := m.pool(tp, m.tableMLP, f.Tables)
	j := m.pool(tp, m.joinMLP, f.Joins)
	p := m.pool(tp, m.predMLP, f.Preds)
	return m.outMLP.Apply(tp, tp.Concat(t, j, p))
}

// Predict returns the predicted runtime in seconds.
func (m *MSCN) Predict(f *encoding.MSCNFeatures) float64 {
	tp := nn.NewTape()
	out := m.forward(tp, f)
	return clampExp(out.Val.Data[0])
}

// Train fits the model on log-runtime targets with Huber loss.
func (m *MSCN) Train(samples []MSCNSample) error {
	if len(samples) == 0 {
		return fmt.Errorf("baselines: MSCN has no training samples")
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
				return fmt.Errorf("baselines: MSCN sample with runtime %v", s.RuntimeSec)
			}
			tp.Reset()
			out := m.forward(tp, s.Feats)
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

// clampExp exponentiates a log-runtime with the same clamp band the
// zero-shot model uses.
func clampExp(logRT float64) float64 {
	if logRT > 9.2 {
		logRT = 9.2
	}
	if logRT < -13.8 {
		logRT = -13.8
	}
	return math.Exp(logRT)
}
