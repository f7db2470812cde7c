package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference kernels: verbatim copies of the loops MatMulInto and
// Tape.MatMul's backward ran when the bitwise contracts (fused ≡ tape,
// train at any width, the golden transcripts) were recorded. They are
// the oracle — whatever the production kernels do to go faster, every
// float64 they produce must carry the bits these produce.

// refMatMulInto is the i-k-j triple loop with the av == 0 skip.
func refMatMulInto(dst, a, b *Tensor) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := range drow {
			drow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// refMatMulBackward is dA += dOut @ B^T ; dB += A^T @ dOut, each
// element summed into a local that starts at +0 and is then added to
// the gradient. aGrad may be nil (a constant input).
func refMatMulBackward(aVal, bVal, dOut, aGrad, bGrad *Tensor) {
	if aGrad != nil {
		for i := 0; i < aVal.Rows; i++ {
			for k := 0; k < aVal.Cols; k++ {
				g := 0.0
				for j := 0; j < bVal.Cols; j++ {
					g += dOut.At(i, j) * bVal.At(k, j)
				}
				aGrad.Data[i*aVal.Cols+k] += g
			}
		}
	}
	for k := 0; k < bVal.Rows; k++ {
		for j := 0; j < bVal.Cols; j++ {
			g := 0.0
			for i := 0; i < aVal.Rows; i++ {
				g += aVal.At(i, k) * dOut.At(i, j)
			}
			bGrad.Data[k*bVal.Cols+j] += g
		}
	}
}

// rowKinds are the row contents the model's matmuls actually meet, plus
// the IEEE corners a zero-skipping kernel can get wrong.
var rowKinds = []string{"dense", "onehot", "zero", "relu", "negzero", "subnormal", "odd-nonzeros"}

// fillRow writes one generated row of the named kind.
func fillRow(rng *rand.Rand, row []float64, kind string) {
	for k := range row {
		row[k] = 0
	}
	switch kind {
	case "dense":
		for k := range row {
			row[k] = rng.NormFloat64()
		}
	case "onehot":
		// The first encoder layer's input: a one-hot block plus a few
		// dense trailing features.
		row[rng.Intn(len(row))] = 1
		for k := max(0, len(row)-3); k < len(row); k++ {
			row[k] = rng.Float64()
		}
	case "zero":
	case "relu":
		for k := range row {
			if v := rng.NormFloat64(); v > 0 {
				row[k] = v
			}
		}
	case "negzero":
		for k := range row {
			switch rng.Intn(3) {
			case 0:
				row[k] = math.Copysign(0, -1)
			case 1:
				row[k] = rng.NormFloat64()
			}
		}
	case "subnormal":
		for k := range row {
			switch rng.Intn(3) {
			case 0:
				row[k] = math.Float64frombits(uint64(rng.Intn(1<<20) + 1)) // denormal
			case 1:
				row[k] = -math.SmallestNonzeroFloat64
			default:
				row[k] = rng.NormFloat64() * 1e-300
			}
		}
	case "odd-nonzeros":
		// A non-zero count that is not a multiple of four, scattered.
		n := 4*rng.Intn(len(row)/4+1) + 1 + rng.Intn(3)
		if n > len(row) {
			n = len(row)
		}
		for _, k := range rng.Perm(len(row))[:n] {
			row[k] = rng.NormFloat64()
		}
	default:
		panic("unknown row kind " + kind)
	}
}

// genMatrix fills a rows x cols tensor, one kind per row, cycling
// through the kinds from a random start so small M still meets all of
// them across the shape sweep.
func genMatrix(rng *rand.Rand, rows, cols int) *Tensor {
	t := NewTensor(rows, cols)
	start := rng.Intn(len(rowKinds))
	for r := 0; r < rows; r++ {
		fillRow(rng, t.Data[r*cols:(r+1)*cols], rowKinds[(start+r)%len(rowKinds)])
	}
	return t
}

// genWeights fills b: mostly dense, with -0, exact zeros and subnormals
// sprinkled in (weights are never sparse, but the kernel must not care).
func genWeights(rng *rand.Rand, rows, cols int) *Tensor {
	t := NewTensor(rows, cols)
	for i := range t.Data {
		switch rng.Intn(16) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = math.Copysign(0, -1)
		case 2:
			t.Data[i] = math.Float64frombits(uint64(rng.Intn(1<<30) + 1))
		default:
			t.Data[i] = rng.NormFloat64()
		}
	}
	return t
}

var (
	refMs = []int{1, 2, 3, 5, 64, 256}
	refNs = []int{1, 7, 8, 31, 32, 33}
)

// refKs returns the K sweep: every width 1..70 for the row-vector case
// (all that training runs), a thinner sweep for the tall ones.
func refKs(m int) []int {
	var ks []int
	step := 1
	if m > 5 {
		step = 7
	}
	for k := 1; k <= 70; k += step {
		ks = append(ks, k)
	}
	return append(ks, 64, 70)
}

// sameBits compares bit patterns. Two NaNs are equal whatever their
// sign and payload: which operand's payload an add propagates is the
// instruction selector's choice, not the kernel's, and nothing
// downstream can tell NaNs apart.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestMatMulIntoMatchesReference pins MatMulInto bit for bit against
// the reference loop over generated shapes and contents, into a
// destination holding garbage (MatMulInto must overwrite, not add).
func TestMatMulIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range refMs {
		for _, k := range refKs(m) {
			for _, n := range refNs {
				a, b := genMatrix(rng, m, k), genWeights(rng, k, n)
				got, want := NewTensor(m, n), NewTensor(m, n)
				for i := range got.Data {
					got.Data[i] = math.NaN()
				}
				MatMulInto(got, a, b)
				refMatMulInto(want, a, b)
				sameBits(t, fmt.Sprintf("%dx%d @ %dx%d", m, k, k, n), got.Data, want.Data)
			}
		}
	}
}

// TestMatMulIntoNonFiniteMatchesReference: the zero skip is part of the
// contract even where it changes the value — 0 · Inf and 0 · NaN are
// left out, so a zero activation against a diverged weight contributes
// nothing instead of NaN, exactly as the reference loop does.
func TestMatMulIntoNonFiniteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, k := range []int{1, 3, 4, 5, 9, 32} {
		for _, n := range []int{1, 8, 33} {
			a, b := genMatrix(rng, 7, k), genWeights(rng, k, n)
			for i := range b.Data {
				switch rng.Intn(6) {
				case 0:
					b.Data[i] = math.Inf(1 - 2*rng.Intn(2))
				case 1:
					b.Data[i] = math.NaN()
				}
			}
			a.Data[rng.Intn(len(a.Data))] = math.Inf(1)
			a.Data[rng.Intn(len(a.Data))] = math.NaN()
			got, want := NewTensor(7, n), NewTensor(7, n)
			MatMulInto(got, a, b)
			refMatMulInto(want, a, b)
			sameBits(t, fmt.Sprintf("non-finite 7x%d @ %dx%d", k, k, n), got.Data, want.Data)
		}
	}
}

// matMulGrads runs out = a @ b on a tape with an MSE loss whose target
// is chosen so dOut = out - target is a generated matrix (exact zeros
// included), and returns the dOut backward actually saw. aGrad == nil
// wraps a as a constant: ConstRow for a row vector, Const otherwise.
func matMulGrads(rng *rand.Rand, aVal, bVal, aGrad, bGrad *Tensor) (dOut *Tensor) {
	tp := NewTape()
	var a *Var
	switch {
	case aGrad != nil:
		a = tp.Leaf(aVal, aGrad)
	case aVal.Rows == 1:
		a = tp.ConstRow(aVal.Data)
	default:
		a = tp.Const(aVal)
	}
	out := tp.MatMul(a, tp.Leaf(bVal, bGrad))
	target := out.Val.Clone()
	for i := range target.Data {
		if rng.Intn(5) > 0 { // one in five stays equal: dOut = +0 there
			target.Data[i] -= rng.NormFloat64()
		}
	}
	tp.Backward(mse(tp, out, target))
	return out.Grad
}

// nonZeroGrad returns a gradient buffer that already holds an earlier
// sample's contribution (never -0: gradient buffers start at +0 and no
// sum that starts at +0 yields -0).
func nonZeroGrad(rng *rand.Rand, rows, cols int) *Tensor {
	t := NewTensor(rows, cols)
	for i := range t.Data {
		if rng.Intn(4) > 0 {
			t.Data[i] = rng.NormFloat64()
		}
	}
	return t
}

// TestMatMulBackwardMatchesReference pins Tape.MatMul's gradients bit
// for bit against the reference loops: a as a Leaf (dA and dB compared)
// and as a constant (dB compared — nobody reads a constant's gradient),
// accumulating onto zero and onto non-zero gradient buffers.
func TestMatMulBackwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range refMs {
		for _, k := range refKs(m) {
			for _, n := range refNs {
				if m > 5 && n != 8 && n != 33 {
					continue // keep the tall shapes to two widths: they cost M·K·N each
				}
				for _, leaf := range []bool{true, false} {
					for _, preload := range []bool{false, true} {
						aVal, bVal := genMatrix(rng, m, k), genWeights(rng, k, n)
						var aGrad, wantA *Tensor
						bGrad := NewTensor(k, n)
						if preload {
							bGrad = nonZeroGrad(rng, k, n)
						}
						if leaf {
							aGrad = NewTensor(m, k)
							if preload {
								aGrad = nonZeroGrad(rng, m, k)
							}
							wantA = aGrad.Clone()
						}
						wantB := bGrad.Clone()
						dOut := matMulGrads(rng, aVal, bVal, aGrad, bGrad)
						refMatMulBackward(aVal, bVal, dOut, wantA, wantB)
						name := fmt.Sprintf("%dx%d @ %dx%d leaf=%v preload=%v", m, k, k, n, leaf, preload)
						sameBits(t, name+" dB", bGrad.Data, wantB.Data)
						if leaf {
							sameBits(t, name+" dA", aGrad.Data, wantA.Data)
						}
					}
				}
			}
		}
	}
}

// refAdamStep is a verbatim copy of the scalar Adam.Step the trained
// goldens were recorded with, every operation rounded on its own in this
// order.
func refAdamStep(a *Adam, scale float64) {
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

// adamGrad fills a gradient: normal values with zeros of both signs and
// subnormals sprinkled in, and, where special, infinities, NaN and
// magnitudes whose square overflows. A NaN makes the global norm NaN,
// which switches the clip off, so a huge value beside one reaches the
// update unscaled.
func adamGrad(rng *rand.Rand, g []float64, special bool) {
	for i := range g {
		switch k := rng.Intn(12); {
		case k == 0:
			g[i] = 0
		case k == 1:
			g[i] = math.Copysign(0, -1)
		case k == 2:
			g[i] = math.Float64frombits(uint64(rng.Intn(1<<20) + 1))
		case k == 3 && special:
			g[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		case k == 4 && special:
			g[i] = []float64{1e300, -1e300, math.MaxFloat64, -math.MaxFloat64}[rng.Intn(4)]
		default:
			g[i] = rng.NormFloat64()
		}
	}
}

// TestAdamStepMatchesReference pins Adam.Step bit for bit — weights,
// both moments, and the untouched gradient — against refAdamStep. Each
// optimizer holds a 1 x n and a 3 x n parameter for every n 1…70, so
// every tail length of a four-wide update and more than one parameter
// per step; the tested side's four tensors are views with canaries
// either side. Eight steps per optimizer move t, and so c1 and c2;
// gradients carry ±0 and subnormals always, and on every third step of
// the special runs also ±Inf, NaN and overflowing magnitudes. The scales
// put the clip on and off, and the test fails unless both happened.
func TestAdamStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var clipped, unclipped int
	for n := 1; n <= 70; n++ {
		for _, scale := range []float64{0, 0.05, 1e4} {
			for _, special := range []bool{false, true} {
				for _, lr := range []float64{1e-3, 0.5} {
					var got, want []*Param
					var checks []func(testing.TB, string)
					for _, rows := range []int{1, 3} {
						p := &Param{}
						for _, dst := range []**Tensor{&p.Val, &p.Grad, &p.m, &p.v} {
							v, check := view(rows, n)
							clear(v.Data)
							*dst = v
							checks = append(checks, check)
						}
						for i := range p.Val.Data {
							p.Val.Data[i] = rng.NormFloat64()
						}
						got = append(got, p)
						want = append(want, &Param{Val: p.Val.Clone(), Grad: NewTensor(rows, n)})
					}
					opt, ref := NewAdam(got, lr), NewAdam(want, lr)
					for step := 1; step <= 8; step++ {
						for i, p := range got {
							adamGrad(rng, p.Grad.Data, special && step%3 == 0)
							copy(want[i].Grad.Data, p.Grad.Data)
						}
						inv := 1.0
						if scale > 0 {
							inv = 1 / scale
						}
						if opt.GradNorm()*inv > clipNorm {
							clipped++
						} else {
							unclipped++
						}
						opt.Step(scale)
						refAdamStep(ref, scale)
						what := fmt.Sprintf("n=%d scale=%v special=%v lr=%v t=%d", n, scale, special, lr, step)
						for i, p := range got {
							w := want[i]
							sameBits(t, what+" weights", p.Val.Data, w.Val.Data)
							sameBits(t, what+" m", p.m.Data, w.m.Data)
							sameBits(t, what+" v", p.v.Data, w.v.Data)
							sameBits(t, what+" gradient", p.Grad.Data, w.Grad.Data)
						}
						for _, check := range checks {
							check(t, what)
						}
					}
				}
			}
		}
	}
	if clipped == 0 || unclipped == 0 {
		t.Fatalf("the clip was on for %d steps and off for %d: want both", clipped, unclipped)
	}
}
