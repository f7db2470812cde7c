package baselines

import (
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
)

// e2e is the tree-structured plan model baseline (Sun & Li). The original
// combines child states with an LSTM cell; this reproduction uses an MLP
// combiner (same information flow, fewer parameters), which DESIGN.md
// records as a reduction.
type e2e struct {
	nodeMLP *nn.MLP
	combMLP *nn.MLP
	outMLP  *nn.MLP
}

// NewE2E creates a randomly initialized E2E model.
func NewE2E(cfg Config) *Net[*encoding.E2ENode] {
	n := newNet[*encoding.E2ENode]("E2E", cfg)
	h := n.cfg.Hidden
	m := &e2e{
		nodeMLP: nn.NewMLP(n.rng, encoding.E2ENodeDim, h, h),
		combMLP: nn.NewMLP(n.rng, 2*h, h, h),
		outMLP:  nn.NewMLP(n.rng, h, h, 1),
	}
	return n.own(m.forward, m.nodeMLP, m.combMLP, m.outMLP)
}

func (m *e2e) encode(tp *nn.Tape, n *encoding.E2ENode) *nn.Var {
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

func (m *e2e) forward(tp *nn.Tape, root *encoding.E2ENode) *nn.Var {
	return m.outMLP.Apply(tp, m.encode(tp, root))
}
