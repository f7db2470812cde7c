package nn

import (
	"math/rand"
)

// Param is one trainable parameter: value, accumulated gradient, and
// Adam's moments, which exist only once an optimizer has been made over
// the parameter (see NewAdam).
type Param struct {
	Val  *Tensor
	Grad *Tensor
	m, v *Tensor
}

// NewParam allocates a parameter of the given shape with a zeroed value
// and gradient, and no moments.
func NewParam(rows, cols int) *Param {
	return &Param{Val: NewTensor(rows, cols), Grad: NewTensor(rows, cols)}
}

// Linear is a fully connected layer y = x @ W + b for row-vector inputs.
type Linear struct {
	W, B *Param
	In   int
	Out  int
}

// NewLinear creates a Glorot-initialized linear layer.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{W: NewParam(in, out), B: NewParam(1, out), In: in, Out: out}
	l.W.Val.XavierInit(rng)
	return l
}

// Apply runs the layer on the tape.
func (l *Linear) Apply(tp *Tape, x *Var) *Var {
	w := tp.Leaf(l.W.Val, l.W.Grad)
	b := tp.Leaf(l.B.Val, l.B.Grad)
	return tp.Add(tp.MatMul(x, w), b)
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// MLP is a multilayer perceptron with ReLU activations between layers and a
// linear final layer.
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP with the given layer sizes, e.g. NewMLP(rng, 16, 32,
// 32, 1) is 16 -> 32 -> 32 -> 1.
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output size")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(sizes[i], sizes[i+1], rng))
	}
	return m
}

// Apply runs the MLP on the tape.
func (m *MLP) Apply(tp *Tape, x *Var) *Var {
	h := x
	for i, l := range m.Layers {
		h = l.Apply(tp, h)
		if i+1 < len(m.Layers) {
			h = tp.ReLU(h)
		}
	}
	return h
}

// Params returns all trainable parameters.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
