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
	for _, p := range a.params {
		for i, g := range p.Grad.Data {
			g *= inv
			p.m.Data[i] = beta1*p.m.Data[i] + (1-beta1)*g
			p.v.Data[i] = beta2*p.v.Data[i] + (1-beta2)*g*g
			mHat := p.m.Data[i] / c1
			vHat := p.v.Data[i] / c2
			p.Val.Data[i] -= a.LR * mHat / (math.Sqrt(vHat) + adamEps)
		}
	}
}
