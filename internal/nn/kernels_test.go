package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernel has two spellings — the Go loops and, on an AVX2 part, the
// assembly — and one contract. These tests run the reference
// comparisons on both and then lean on the places a vector spelling can
// go wrong that a scalar one cannot: tails, unaligned views, writes
// past the end, and what a packed max does to -0 and NaN.

// haveAVX2 is what init detected, before any test touches useAVX2.
var haveAVX2 = useAVX2

// eachSpelling runs f once per spelling of the kernel, as subtests "go"
// and "avx2", restoring useAVX2 afterwards. Nothing in this package's
// tests runs in parallel, so the flip is not a race.
func eachSpelling(t *testing.T, f func(t *testing.T)) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	for _, avx2 := range []bool{false, true} {
		name := "go"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			if avx2 && !haveAVX2 {
				t.Skip("NOT RUN: this CPU (or GOARCH) has no AVX2, so the assembly spelling of the kernel went untested here")
			}
			useAVX2 = avx2
			f(t)
		})
	}
}

// TestReferenceOnBothSpellings runs every reference comparison — and
// the tape ≡ Infer and non-finite-gradient pins that reach the same
// kernels, and the Adam update — with the assembly on and with it off.
func TestReferenceOnBothSpellings(t *testing.T) {
	eachSpelling(t, func(t *testing.T) {
		t.Run("MatMulInto", TestMatMulIntoMatchesReference)
		t.Run("MatMulIntoNonFinite", TestMatMulIntoNonFiniteMatchesReference)
		t.Run("MatMulBackward", TestMatMulBackwardMatchesReference)
		t.Run("BackwardNonFiniteGradient", TestMatMulBackwardSkipsZeroActivationsUnderNonFiniteGradient)
		t.Run("InferMatchesTape", TestInferMatchesTapeRowByRow)
		t.Run("AdamStep", TestAdamStepMatchesReference)
	})
}

// view carves a rows x cols tensor out of a fresh slab at an odd
// 8-byte offset (so never 16- or 32-byte aligned relative to the slab),
// with a canary value on each side. check fails the test if either
// canary changed.
func view(rows, cols int) (t *Tensor, check func(tb testing.TB, what string)) {
	const canary = 0x7ff8dead0000beef // a NaN no arithmetic here produces
	slab := make([]float64, rows*cols+8)
	for i := range slab {
		slab[i] = math.Float64frombits(canary)
	}
	const off = 3
	t = Wrap(rows, cols, slab[off:off+rows*cols:off+rows*cols])
	return t, func(tb testing.TB, what string) {
		tb.Helper()
		for _, i := range []int{off - 1, off + rows*cols} {
			if math.Float64bits(slab[i]) != canary {
				tb.Fatalf("%s: wrote outside the destination (slab[%d] = %#x)", what, i, math.Float64bits(slab[i]))
			}
		}
	}
}

// TestMatMulIntoViewsMatchReference: every output width 1…70 — each
// residue mod 4 and mod 8, so every tile and every tail length of the
// assembly — into destinations, inputs and weights that are nn.Wrap
// views at odd offsets into larger slabs (what the fused pass hands the
// kernel), with canaries either side of the destination. K runs past
// gatherBlock so rows are consumed in more than one call.
func TestMatMulIntoViewsMatchReference(t *testing.T) {
	eachSpelling(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for n := 1; n <= 70; n++ {
			for _, k := range []int{1, 3, 4, 7, 64, 65, 131} {
				for _, m := range []int{1, 3} {
					a, _ := view(m, k)
					copy(a.Data, genMatrix(rng, m, k).Data)
					b, _ := view(k, n)
					copy(b.Data, genWeights(rng, k, n).Data)
					got, check := view(m, n)
					want := NewTensor(m, n)
					MatMulInto(got, a, b)
					refMatMulInto(want, a, b)
					what := fmt.Sprintf("%dx%d @ %dx%d", m, k, k, n)
					sameBits(t, what, got.Data, want.Data)
					check(t, what)
				}
			}
		}
	})
}

// TestGatherNonZeroMatchesScan: the gather lists exactly the positions
// a `v != 0` scan would, in order, for every block length and for the
// values on which a bit test and a float compare could disagree.
func TestGatherNonZeroMatchesScan(t *testing.T) {
	eachSpelling(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		specials := []float64{0, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1}
		for n := 0; n <= gatherBlock; n++ {
			for rep := 0; rep < 8; rep++ {
				blk := make([]float64, n+2)[1 : n+1] // odd offset again
				for i := range blk {
					blk[i] = specials[rng.Intn(len(specials))]
				}
				const base = 1000
				var want []int
				for k, v := range blk {
					if v != 0 {
						want = append(want, base+k)
					}
				}
				var ks [gatherBlock]int
				held := gatherNonZero(&ks, blk, base)
				if fmt.Sprint(ks[:held]) != fmt.Sprint(want) {
					t.Fatalf("n=%d %v: gathered %v, want %v", n, blk, ks[:held], want)
				}
			}
		}
	})
}

// TestBiasReLUPassMatchesSeparateOps pins the fused epilogue — bias
// added and negatives clamped in the pass that finishes a row — bit for
// bit (NaN payloads included) against AddRowBroadcast then ReLUInPlace,
// on the values where a packed add and max could differ from `d += v;
// if d < 0 { d = 0 }`: ±0 (a sum that is exactly -0 must stay -0), NaNs
// with payloads, infinities of both signs and their difference,
// subnormals that cancel. addRows is driven directly with a preset
// destination, because a matmul output is never -0 (it starts at +0).
func TestBiasReLUPassMatchesSeparateOps(t *testing.T) {
	negZero := math.Copysign(0, -1)
	payload := math.Float64frombits(0x7ff8000000c0ffee)
	negPayload := math.Float64frombits(0xfff80000deadbeef)
	sub := math.SmallestNonzeroFloat64
	pairs := [][2]float64{ // {accumulated value, bias}
		{negZero, negZero}, {0, negZero}, {negZero, 0}, {0, 0},
		{payload, 1}, {negPayload, -1}, {1, payload}, {negPayload, math.Inf(1)},
		{math.Inf(1), math.Inf(-1)}, {math.Inf(-1), 1}, {math.Inf(1), -1}, {1, math.Inf(-1)},
		{sub, -sub}, {-sub, 0}, {-sub, sub}, {3 * sub, -5 * sub},
		{1.5, -1.5}, {-1.5, 1.5}, {1, -2}, {-2, 3}, {math.MaxFloat64, math.MaxFloat64}, {-math.MaxFloat64, -math.MaxFloat64},
	}
	eachSpelling(t, func(t *testing.T) {
		for n := 1; n <= 40; n++ {
			for shift := 0; shift < len(pairs); shift += 5 {
				for _, relu := range []bool{false, true} {
					got, check := view(1, n)
					bias, _ := view(1, n)
					for j := 0; j < n; j++ {
						p := pairs[(j+shift)%len(pairs)]
						got.Data[j], bias.Data[j] = p[0], p[1]
					}
					want := got.Clone()
					want.AddRowBroadcast(bias)
					if relu {
						want.ReLUInPlace()
					}
					addRows(got.Data, nil, nil, nil, bias.Data, relu)
					what := fmt.Sprintf("n=%d shift=%d relu=%v", n, shift, relu)
					for j := range got.Data {
						if g, w := math.Float64bits(got.Data[j]), math.Float64bits(want.Data[j]); g != w {
							p := pairs[(j+shift)%len(pairs)]
							t.Fatalf("%s: %v + %v gave %#x, separate ops give %#x", what, p[0], p[1], g, w)
						}
					}
					check(t, what)
				}
			}
		}
	})
}

// TestLinearInferMatchesSeparateOps: the layer-level view of the same
// thing, through real matmuls — Infer (and the hidden-layer form with
// the clamp folded in) against MatMulInto, AddRowBroadcast and
// ReLUInPlace one after another, with non-finite weights in play.
func TestLinearInferMatchesSeparateOps(t *testing.T) {
	eachSpelling(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		inf := GetInference()
		defer inf.Release()
		for _, out := range []int{1, 5, 32, 33} {
			for _, in := range []int{1, 14, 64, 70} {
				l := NewLinear(in, out, rng)
				copy(l.W.Val.Data, genWeights(rng, in, out).Data)
				copy(l.B.Val.Data, genWeights(rng, 1, out).Data)
				l.W.Val.Data[rng.Intn(in*out)] = math.Inf(-1)
				l.B.Val.Data[rng.Intn(out)] = math.NaN()
				x := genMatrix(rng, 9, in)
				for _, relu := range []bool{false, true} {
					want := NewTensor(9, out)
					MatMulInto(want, x, l.W.Val)
					want.AddRowBroadcast(l.B.Val)
					if relu {
						want.ReLUInPlace()
					}
					inf.Reset()
					got := l.infer(inf, x, relu)
					sameBits(t, fmt.Sprintf("%d -> %d relu=%v", in, out, relu), got.Data, want.Data)
				}
			}
		}
	})
}

// TestMatMulBackwardRowVectorNonFiniteMatchesReference: dB for a row
// vector a, the update training runs, against a reference that skips
// zero activations the way the kernel documents — under gradients that
// contain infinities and NaNs, at every width's tail length.
func TestMatMulBackwardRowVectorNonFiniteMatchesReference(t *testing.T) {
	eachSpelling(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(34))
		for n := 1; n <= 37; n++ {
			for _, k := range []int{1, 5, 64} {
				aVal, bVal := genMatrix(rng, 1, k), genWeights(rng, k, n)
				bGrad := nonZeroGrad(rng, k, n)
				want := bGrad.Clone()
				tp := NewTape()
				out := tp.MatMul(tp.ConstRow(aVal.Data), tp.Leaf(bVal, bGrad))
				target := out.Val.Clone()
				for j := range target.Data {
					switch rng.Intn(4) {
					case 0:
						target.Data[j] = math.Inf(1 - 2*rng.Intn(2))
					case 1:
						target.Data[j] = math.NaN()
					case 2:
						target.Data[j] -= rng.NormFloat64()
					}
				}
				tp.Backward(mse(tp, out, target))
				for kk, x := range aVal.Data {
					if x == 0 {
						continue
					}
					for j, d := range out.Grad.Data {
						g := 0.0
						g += x * d
						want.Data[kk*n+j] += g
					}
				}
				sameBits(t, fmt.Sprintf("dB 1x%d @ %dx%d", k, k, n), bGrad.Data, want.Data)
			}
		}
	})
}

// TestKernelSteadyStateAllocations: neither spelling allocates — the
// gather's positions live on the stack — for MatMulInto or for a layer
// on a warm Inference.
func TestKernelSteadyStateAllocations(t *testing.T) {
	eachSpelling(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(35))
		l := NewLinear(70, 33, rng)
		x := NewTensor(16, 70)
		fillPostReLU(rng, x)
		dst := NewTensor(16, 33)
		if allocs := testing.AllocsPerRun(50, func() { MatMulInto(dst, x, l.W.Val) }); allocs > 0 {
			t.Fatalf("MatMulInto allocates %v objects per call, want 0", allocs)
		}
		inf := GetInference()
		defer inf.Release()
		l.Infer(inf, x) // warm the slot
		inf.Reset()
		allocs := testing.AllocsPerRun(50, func() {
			l.Infer(inf, x)
			inf.Reset()
		})
		if allocs > 0 {
			t.Fatalf("warm Linear.Infer allocates %v objects per pass, want 0", allocs)
		}
	})
}

// gradRow fills a row of a gradient flowing into a kernel with the
// values a vector spelling could mistreat: exact zeros of both signs,
// subnormals, and — where nonFinite — infinities and NaN.
func gradRow(rng *rand.Rand, row []float64, nonFinite bool) {
	for j := range row {
		switch rng.Intn(10) {
		case 0:
			row[j] = 0
		case 1:
			row[j] = math.Copysign(0, -1)
		case 2:
			row[j] = math.Float64frombits(uint64(rng.Intn(1<<20) + 1))
		case 3:
			if nonFinite {
				row[j] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
				continue
			}
			fallthrough
		default:
			row[j] = rng.NormFloat64()
		}
	}
}

// TestAddOuterMatchesReference pins the weight gradient's row update
// against the tape's defining loop (refMatMulBackward's dB, one row at a
// time: a zero x[k] skipped, each term summed onto +0 and then added) on
// both spellings: every width 1…70, so every tile and tail of the
// assembly; row lists in arbitrary order with repeats; row ranges that
// start and stop inside the matrix and run past gatherBlock; inputs with
// -0 and subnormals; gradients with zeros of both signs, subnormals,
// infinities and NaN; a bias (x nil); destinations that are views with
// canaries either side.
func TestAddOuterMatchesReference(t *testing.T) {
	eachSpelling(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(36))
		for n := 1; n <= 70; n++ {
			for _, k := range []int{0, 1, 3, 17, 64, 70, 131} {
				for _, nonFinite := range []bool{false, true} {
					const m = 5
					d := NewTensor(m, n)
					gradRow(rng, d.Data, nonFinite)
					var x *Tensor
					lo, hi, rows := 0, 1, 1
					if k > 0 { // k = 0 is the bias
						x = genMatrix(rng, m, k)
						lo, hi, rows = 0, k, k
						if k > 3 {
							lo, hi = rng.Intn(k/2), k-rng.Intn(k/2)
						}
					}
					list := make([]int32, rng.Intn(2*m))
					for i := range list {
						list[i] = int32(rng.Intn(m))
					}
					got, check := view(rows, n)
					copy(got.Data, nonZeroGrad(rng, rows, n).Data)
					want := got.Clone()
					AddOuter(got, x, d, list, lo, hi)
					for _, r := range list {
						for kk := lo; kk < hi; kk++ {
							xv := 1.0
							if x != nil {
								xv = x.At(int(r), kk)
							}
							if xv == 0 {
								continue
							}
							for j := 0; j < n; j++ {
								g := 0.0
								g += xv * d.At(int(r), j)
								want.Data[kk*n+j] += g
							}
						}
					}
					what := fmt.Sprintf("rows %v, weight rows [%d,%d) of %dx%d, nonFinite=%v", list, lo, hi, rows, n, nonFinite)
					sameBits(t, what, got.Data, want.Data)
					check(t, what)
				}
			}
		}
	})
}

// TestBackpropIntoMatchesReference pins the input gradient over a
// transposed weight against the tape's dot products (refMatMulBackward's
// dA onto a zeroed gradient) on both spellings: gradients with zeros of
// both signs, subnormals and non-finite values (no term is skipped, so
// 0·Inf must come out NaN as the dot makes it), weights with -0 and
// subnormals, output widths past gatherBlock, and destinations holding
// garbage (BackpropInto overwrites).
func TestBackpropIntoMatchesReference(t *testing.T) {
	eachSpelling(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		for _, m := range []int{1, 3} {
			for k := 1; k <= 70; k += 3 {
				for _, n := range []int{1, 7, 8, 31, 32, 33, 64, 65, 70} {
					for _, nonFinite := range []bool{false, true} {
						w := genWeights(rng, k, n)
						if nonFinite {
							w.Data[rng.Intn(k*n)] = math.Inf(1)
						}
						wt := NewTensor(n, k)
						w.TransposeInto(wt)
						dOut := NewTensor(m, n)
						gradRow(rng, dOut.Data, nonFinite)
						got, check := view(m, k)
						for i := range got.Data {
							got.Data[i] = rng.NormFloat64()
						}
						want := NewTensor(m, k)
						refMatMulBackward(genMatrix(rng, m, k), w, dOut, want, NewTensor(k, n))
						BackpropInto(got, dOut, wt)
						what := fmt.Sprintf("%dx%d @ (%dx%d)ᵀ nonFinite=%v", m, n, k, n, nonFinite)
						sameBits(t, what, got.Data, want.Data)
						check(t, what)
					}
				}
			}
		}
	})
}
