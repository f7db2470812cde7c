package baselines

import (
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
)

// mscn is the multi-set convolutional network baseline.
type mscn struct {
	hidden   int
	tableMLP *nn.MLP
	joinMLP  *nn.MLP
	predMLP  *nn.MLP
	outMLP   *nn.MLP
}

// NewMSCN creates a randomly initialized MSCN model.
func NewMSCN(cfg Config) *Net[*encoding.MSCNFeatures] {
	n := newNet[*encoding.MSCNFeatures]("MSCN", cfg)
	h := n.cfg.Hidden
	m := &mscn{
		hidden:   h,
		tableMLP: nn.NewMLP(n.rng, encoding.MaxVocabTables, h, h),
		joinMLP:  nn.NewMLP(n.rng, encoding.MaxVocabJoins, h, h),
		predMLP:  nn.NewMLP(n.rng, encoding.MSCNPredDim, h, h),
		outMLP:   nn.NewMLP(n.rng, 3*h, h, 1),
	}
	return n.own(m.forward, m.tableMLP, m.joinMLP, m.predMLP, m.outMLP)
}

// pool applies the set MLP to each vector and mean-pools; an empty set
// yields a zero vector.
func (m *mscn) pool(tp *nn.Tape, mlp *nn.MLP, set [][]float64) *nn.Var {
	if len(set) == 0 {
		return tp.Const(nn.NewTensor(1, m.hidden))
	}
	hs := make([]*nn.Var, len(set))
	for i, v := range set {
		hs[i] = tp.ReLU(mlp.Apply(tp, tp.Const(nn.FromSlice(v))))
	}
	return tp.ScaleVar(tp.Sum(hs...), 1/float64(len(set)))
}

func (m *mscn) forward(tp *nn.Tape, f *encoding.MSCNFeatures) *nn.Var {
	t := m.pool(tp, m.tableMLP, f.Tables)
	j := m.pool(tp, m.joinMLP, f.Joins)
	p := m.pool(tp, m.predMLP, f.Preds)
	return m.outMLP.Apply(tp, tp.Concat(t, j, p))
}
