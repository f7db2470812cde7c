package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mse is the squared-error loss 0.5*(pred - target)^2 summed over
// elements: HuberLoss with an infinite threshold, which takes the
// quadratic branch forward and backward for every residual.
func mse(tp *Tape, pred *Var, target *Tensor) *Var {
	return tp.HuberLoss(pred, target, math.Inf(1))
}

// numericalGrad perturbs one parameter element and measures the loss
// difference, for gradient checking.
func numericalGrad(build func() float64, elem *float64) float64 {
	const h = 1e-6
	orig := *elem
	*elem = orig + h
	up := build()
	*elem = orig - h
	down := build()
	*elem = orig
	return (up - down) / (2 * h)
}

// TestGradCheckMLP verifies reverse-mode gradients against numerical
// differentiation for an MLP with all ops in play.
func TestGradCheckMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mlp := NewMLP(rng, 4, 8, 3, 1)
	x := FromSlice([]float64{0.3, -1.2, 0.8, 2.0})
	target := FromSlice([]float64{0.7})

	forward := func() float64 {
		tp := NewTape()
		out := mlp.Apply(tp, tp.Const(x))
		loss := mse(tp, out, target)
		return loss.Val.Data[0]
	}

	// Analytical gradients.
	tp := NewTape()
	out := mlp.Apply(tp, tp.Const(x))
	loss := mse(tp, out, target)
	tp.Backward(loss)

	for li, layer := range mlp.Layers {
		for pi, p := range layer.Params() {
			for i := range p.Val.Data {
				want := numericalGrad(forward, &p.Val.Data[i])
				got := p.Grad.Data[i]
				if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
					t.Fatalf("layer %d param %d elem %d: grad %v, numerical %v", li, pi, i, got, want)
				}
			}
		}
	}
}

// TestGradCheckGraphOps verifies gradients through Sum, Concat, ScaleVar
// and Huber — the ops the DAG message passing uses.
func TestGradCheckGraphOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc := NewLinear(3, 4, rng)
	comb := NewLinear(8, 1, rng)
	x1 := FromSlice([]float64{0.5, -0.3, 1.1})
	x2 := FromSlice([]float64{-0.9, 0.2, 0.4})
	target := FromSlice([]float64{2.0})

	forward := func() float64 {
		tp := NewTape()
		h1 := tp.ReLU(enc.Apply(tp, tp.Const(x1)))
		h2 := tp.ReLU(enc.Apply(tp, tp.Const(x2)))
		summed := tp.Sum(h1, h2)
		scaled := tp.ScaleVar(summed, 0.5)
		cat := tp.Concat(scaled, h1)
		out := comb.Apply(tp, cat)
		loss := tp.HuberLoss(out, target, 1.0)
		return loss.Val.Data[0]
	}

	tp := NewTape()
	h1 := tp.ReLU(enc.Apply(tp, tp.Const(x1)))
	h2 := tp.ReLU(enc.Apply(tp, tp.Const(x2)))
	summed := tp.Sum(h1, h2)
	scaled := tp.ScaleVar(summed, 0.5)
	cat := tp.Concat(scaled, h1)
	out := comb.Apply(tp, cat)
	loss := tp.HuberLoss(out, target, 1.0)
	tp.Backward(loss)

	for _, p := range append(enc.Params(), comb.Params()...) {
		for i := range p.Val.Data {
			want := numericalGrad(forward, &p.Val.Data[i])
			got := p.Grad.Data[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("elem %d: grad %v, numerical %v", i, got, want)
			}
		}
	}
}

func TestMatMulCorrectness(t *testing.T) {
	a := NewTensor(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := NewTensor(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	dst := NewTensor(2, 2)
	MatMulInto(dst, a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("matmul[%d] = %v, want %v", i, dst.Data[i], v)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	MatMulInto(NewTensor(2, 2), NewTensor(2, 3), NewTensor(2, 2))
}

func TestAdamConvergesOnRegression(t *testing.T) {
	// y = 2*x0 - 3*x1 + 1, learnable by a linear layer.
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(2, 1, rng)
	opt := NewAdam(l.Params(), 0.05)
	for epoch := 0; epoch < 400; epoch++ {
		x0, x1 := rng.Float64()*2-1, rng.Float64()*2-1
		target := FromSlice([]float64{2*x0 - 3*x1 + 1})
		tp := NewTape()
		out := l.Apply(tp, tp.Const(FromSlice([]float64{x0, x1})))
		loss := mse(tp, out, target)
		tp.Backward(loss)
		opt.Step(1)
		opt.ZeroGrad()
	}
	if math.Abs(l.W.Val.Data[0]-2) > 0.1 || math.Abs(l.W.Val.Data[1]+3) > 0.1 || math.Abs(l.B.Val.Data[0]-1) > 0.1 {
		t.Fatalf("did not converge: W=%v B=%v", l.W.Val.Data, l.B.Val.Data)
	}
}

func TestAdamClipBoundsUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear(2, 1, rng)
	opt := NewAdam(l.Params(), 0.01)
	// Enormous gradient.
	for i := range l.W.Grad.Data {
		l.W.Grad.Data[i] = 1e9
	}
	before := l.W.Val.Clone()
	opt.Step(1)
	for i := range l.W.Val.Data {
		if math.Abs(l.W.Val.Data[i]-before.Data[i]) > 0.1 {
			t.Fatalf("clipped update still huge: %v", l.W.Val.Data[i]-before.Data[i])
		}
	}
}

// TestAdamMomentsAppearOnFirstOptimizer checks that a parameter holds no
// moments until an optimizer is made over it, and that a later optimizer
// continues from the moments an earlier one left.
func TestAdamMomentsAppearOnFirstOptimizer(t *testing.T) {
	l := NewLinear(2, 1, rand.New(rand.NewSource(4)))
	for _, p := range l.Params() {
		if p.m != nil || p.v != nil {
			t.Fatal("an untrained parameter holds moments")
		}
	}
	opt := NewAdam(l.Params(), 0.01)
	l.W.Grad.Data[0] = 1
	opt.Step(1)
	m, v := l.W.m, l.W.v
	if m == nil || m.Data[0] == 0 || v.Data[0] == 0 {
		t.Fatalf("a step left moments %v, %v", m, v)
	}
	NewAdam(l.Params(), 0.01)
	if l.W.m != m || l.W.v != v {
		t.Fatal("a second optimizer replaced the first one's moments")
	}
}

func TestMLPDeterministicForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mlp := NewMLP(rng, 3, 8, 1)
	x := FromSlice([]float64{1, 2, 3})
	run := func() float64 {
		tp := NewTape()
		return mlp.Apply(tp, tp.Const(x)).Val.Data[0]
	}
	if run() != run() {
		t.Fatal("forward not deterministic")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := NewMLP(rng, 4, 6, 1)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	dst := NewMLP(rand.New(rand.NewSource(99)), 4, 6, 1)
	if err := LoadParams(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	x := FromSlice([]float64{0.1, 0.2, 0.3, 0.4})
	tp1, tp2 := NewTape(), NewTape()
	a := src.Apply(tp1, tp1.Const(x)).Val.Data[0]
	b := dst.Apply(tp2, tp2.Const(x)).Val.Data[0]
	if a != b {
		t.Fatalf("loaded model differs: %v vs %v", a, b)
	}
}

func TestLoadParamsRejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := NewMLP(rng, 4, 6, 1)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewMLP(rng, 4, 7, 1)
	if err := LoadParams(&buf, other.Params()); err == nil {
		t.Fatal("accepted mismatched architecture")
	}
	// LoadParams presets each tensor's slice for gob to fill in place; a
	// tensor the stream omits, shortens or lengthens must still fail.
	for name, data := range map[string][]float64{"omitted": nil, "short": make([]float64, 5), "long": make([]float64, 7)} {
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode([]savedTensor{{Rows: 2, Cols: 3, Data: data}}); err != nil {
			t.Fatal(err)
		}
		if err := LoadParams(&buf, []*Param{NewParam(2, 3)}); err == nil {
			t.Fatalf("accepted a %s tensor", name)
		}
	}
}

func TestConcatShapesProperty(t *testing.T) {
	f := func(n1, n2 uint8) bool {
		a, b := int(n1%16)+1, int(n2%16)+1
		tp := NewTape()
		v1 := tp.Const(NewTensor(1, a))
		v2 := tp.Const(NewTensor(1, b))
		out := tp.Concat(v1, v2)
		return out.Val.Cols == a+b && out.Val.Rows == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardPanicsOnNonScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward accepted non-scalar loss")
		}
	}()
	tp := NewTape()
	v := tp.Const(NewTensor(1, 3))
	tp.Backward(v)
}

func TestReLUZeroesNegatives(t *testing.T) {
	tp := NewTape()
	x := tp.Const(FromSlice([]float64{-2, 0, 3}))
	out := tp.ReLU(x)
	want := []float64{0, 0, 3}
	for i, v := range want {
		if out.Val.Data[i] != v {
			t.Fatalf("relu[%d] = %v, want %v", i, out.Val.Data[i], v)
		}
	}
}

func TestAddShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted mismatched shapes")
		}
	}()
	tp := NewTape()
	tp.Add(tp.Const(NewTensor(1, 2)), tp.Const(NewTensor(1, 3)))
}

func TestSumEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sum accepted no arguments")
		}
	}()
	NewTape().Sum()
}

func TestAdamZeroGradClearsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewLinear(3, 2, rng)
	opt := NewAdam(l.Params(), 0.01)
	for _, p := range l.Params() {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = 1
		}
	}
	if opt.GradNorm() == 0 {
		t.Fatal("grad norm zero before ZeroGrad")
	}
	opt.ZeroGrad()
	if opt.GradNorm() != 0 {
		t.Fatal("grads survive ZeroGrad")
	}
}

func TestGradientAccumulationAcrossSamples(t *testing.T) {
	// Two backward passes without ZeroGrad must accumulate (the batching
	// contract the training loops rely on).
	rng := rand.New(rand.NewSource(10))
	l := NewLinear(2, 1, rng)
	x := FromSlice([]float64{1, 2})
	target := FromSlice([]float64{5})
	run := func() {
		tp := NewTape()
		out := l.Apply(tp, tp.Const(x))
		tp.Backward(mse(tp, out, target))
	}
	run()
	once := l.W.Grad.Clone()
	run()
	for i := range once.Data {
		if math.Abs(l.W.Grad.Data[i]-2*once.Data[i]) > 1e-12 {
			t.Fatalf("gradient did not accumulate: %v vs 2*%v", l.W.Grad.Data[i], once.Data[i])
		}
	}
}

func TestXavierInitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := NewTensor(64, 64)
	w.XavierInit(rng)
	limit := math.Sqrt(6.0 / 128)
	for _, v := range w.Data {
		if v < -limit || v > limit {
			t.Fatalf("xavier value %v outside [-%v, %v]", v, limit, limit)
		}
	}
	if w.L2Norm() == 0 {
		t.Fatal("xavier produced all zeros")
	}
}
