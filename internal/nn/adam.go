package nn

import "math"

// Adam implements the Adam optimizer over a fixed parameter set.
type Adam struct {
	params []*Param
	LR     float64
	t      int
}

// The decay rates are variables, not constants, on purpose: Step computes
// 1-beta1 and 1-beta2 in float64 at run time (0.09999999999999998 for
// 0.9), where a constant would fold them exactly (0.1) and move every
// trained weight.
var beta1, beta2 = 0.9, 0.999

const (
	adamEps = 1e-8
	// clipNorm bounds the global gradient norm before each step.
	clipNorm = 5
)

// NewAdam creates an Adam optimizer with standard hyperparameters. A
// parameter gets zeroed moments the first time an optimizer is made over
// it, and keeps them: a later optimizer continues from them.
func NewAdam(params []*Param, lr float64) *Adam {
	for _, p := range params {
		if p.m == nil {
			p.m = NewTensor(p.Val.Rows, p.Val.Cols)
			p.v = NewTensor(p.Val.Rows, p.Val.Cols)
		}
	}
	return &Adam{params: params, LR: lr}
}

// ZeroGrad clears all parameter gradients; call after each Step.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.Grad.Zero()
	}
}

// GradNorm returns the global L2 norm of all parameter gradients.
func (a *Adam) GradNorm() float64 {
	s := 0.0
	for _, p := range a.params {
		for _, g := range p.Grad.Data {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// Step applies one Adam update from the accumulated gradients. scale
// divides the gradients first (pass the batch size for mean-gradient
// semantics).
//
// Where useAVX2 is set the assembly updates each parameter's len &^ 3
// prefix, four elements to an instruction, and the Go loop the rest.
// Every element is updated on its own with the same correctly rounded
// operations in the same order, so the bits are the same either way.
// GradNorm sums across elements, in order, and stays scalar.
func (a *Adam) Step(scale float64) {
	if scale <= 0 {
		scale = 1
	}
	inv := 1 / scale
	if norm := a.GradNorm() * inv; norm > clipNorm {
		inv *= clipNorm / norm
	}
	a.t++
	c1 := 1 - math.Pow(beta1, float64(a.t))
	c2 := 1 - math.Pow(beta2, float64(a.t))
	k := adamConsts{
		inv: inv, b1: beta1, nb1: 1 - beta1, b2: beta2, nb2: 1 - beta2,
		c1: c1, c2: c2, lr: a.LR, eps: adamEps,
	}
	for _, p := range a.params {
		val, g, m, v := p.Val.Data, p.Grad.Data, p.m.Data, p.v.Data
		if len(val) != len(g) || len(m) != len(g) || len(v) != len(g) {
			panic("nn: Adam parameter, gradient and moments differ in size")
		}
		i := 0
		if useAVX2 {
			i = len(g) &^ 3
			adamStepAVX2(val[:i], g[:i], m[:i], v[:i], &k)
		}
		for ; i < len(g); i++ {
			gi := g[i] * inv
			m[i] = beta1*m[i] + (1-beta1)*gi
			v[i] = beta2*v[i] + (1-beta2)*gi*gi
			mHat := m[i] / c1
			vHat := v[i] / c2
			val[i] -= a.LR * mHat / (math.Sqrt(vHat) + adamEps)
		}
	}
}

// adamConsts are one step's scalars, as adamStepAVX2 reads them: the
// gradient factor, the decay rates and their complements (computed at
// run time from the variables, see beta1), the bias corrections, the
// learning rate and epsilon.
type adamConsts struct {
	inv, b1, nb1, b2, nb2, c1, c2, lr, eps float64
}
