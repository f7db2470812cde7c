package nn

import (
	"math"
	"math/rand"
	"testing"
)

// runMLPSample builds one forward+backward pass for x on tp against the
// MLP and returns the loss value. Gradients accumulate into the MLP's
// parameter gradients (possibly remapped).
func runMLPSample(tp *Tape, m *MLP, x, target []float64) float64 {
	out := m.Apply(tp, tp.ConstRow(x))
	loss := mse(tp, out, FromSlice(target))
	tp.Backward(loss)
	return loss.Val.Data[0]
}

// TestTapeResetBitwiseEqualsFresh pins the tape-pooling contract: a tape
// recycled with Reset across samples produces bitwise-identical losses
// and parameter gradients to a fresh tape per sample.
func runSamples(m *MLP, fresh bool) ([]float64, []*Tensor) {
	rng := rand.New(rand.NewSource(7))
	xs := make([][]float64, 6)
	ts := make([][]float64, 6)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		ts[i] = []float64{rng.Float64()}
	}
	var losses []float64
	tp := NewTape()
	for i := range xs {
		if fresh {
			tp = NewTape()
		} else {
			tp.Reset()
		}
		losses = append(losses, runMLPSample(tp, m, xs[i], ts[i]))
	}
	var grads []*Tensor
	for _, p := range m.Params() {
		grads = append(grads, p.Grad.Clone())
		p.Grad.Zero()
	}
	return losses, grads
}

func TestTapeResetBitwiseEqualsFresh(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(1)), 3, 8, 1)
	freshLoss, freshGrads := runSamples(m, true)
	poolLoss, poolGrads := runSamples(m, false)
	for i := range freshLoss {
		if freshLoss[i] != poolLoss[i] {
			t.Fatalf("sample %d: pooled-tape loss %v != fresh-tape loss %v", i, poolLoss[i], freshLoss[i])
		}
	}
	for i := range freshGrads {
		for j := range freshGrads[i].Data {
			if freshGrads[i].Data[j] != poolGrads[i].Data[j] {
				t.Fatalf("param %d elem %d: pooled grad %v != fresh grad %v",
					i, j, poolGrads[i].Data[j], freshGrads[i].Data[j])
			}
		}
	}
}

// TestTapeResetSteadyStateCutsAllocations: once the first sample has
// grown the slab, the struct pools and the op log, a Reset cycle —
// forward, loss, backward — allocates nothing, against dozens of
// objects for a fresh tape.
func TestTapeResetSteadyStateCutsAllocations(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(2)), 16, 32, 32, 1)
	x := make([]float64, 16)
	tgt := FromSlice([]float64{0.5})
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	sample := func(tp *Tape) {
		tp.Backward(mse(tp, m.Apply(tp, tp.ConstRow(x)), tgt))
	}
	freshAllocs := testing.AllocsPerRun(50, func() { sample(NewTape()) })
	tp := NewTape()
	sample(tp) // warm the slab, the struct pools and the op log
	pooledAllocs := testing.AllocsPerRun(50, func() {
		tp.Reset()
		sample(tp)
	})
	t.Logf("fresh tape: %.0f allocs/sample; pooled tape: %.0f", freshAllocs, pooledAllocs)
	if pooledAllocs != 0 {
		t.Fatalf("a warm tape allocates %.0f objects per sample, want 0 (fresh tape: %.0f)", pooledAllocs, freshAllocs)
	}
}

// TestTapeSlabGrowsGeometrically: a stream of samples each slightly
// larger than the last (ever-larger plans reaching one tape) must cost
// a logarithmic number of slabs, not a new slab per new maximum.
func TestTapeSlabGrowsGeometrically(t *testing.T) {
	tp := NewTape()
	slabs, last := 0, 0
	const steps = 400
	for n := 1; n <= steps; n++ {
		tp.Reset()
		// A chain of n 1x64 ReLUs: 128 scratch floats each.
		v := tp.Const(NewTensor(1, 64))
		for i := 0; i < n; i++ {
			v = tp.ReLU(v)
		}
		if len(tp.slab) != last {
			slabs++
			last = len(tp.slab)
		}
	}
	need := steps * 128
	if last < need {
		t.Fatalf("final slab holds %d floats, the last sample needs %d", last, need)
	}
	// Doubling from firstSlab reaches need in log2(need/firstSlab) steps;
	// allow one more for the sample that straddles a boundary.
	limit := 2
	for size := firstSlab; size < need; size *= slabGrowth {
		limit++
	}
	if slabs > limit {
		t.Fatalf("%d ever-larger samples cost %d slabs, want <= %d (logarithmic)", steps, slabs, limit)
	}
}

// TestTapeResetDropsReferences: a reset tape references nothing but its
// own buffers and the remap table — what lets a pool of idle tapes
// outlive the models and plan graphs that used them.
func TestTapeResetDropsReferences(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(5)), 4, 6, 1)
	tp := NewTape()
	tp.Backward(mse(tp, m.Apply(tp, tp.ConstRow([]float64{1, 2, 3, 4})), FromSlice([]float64{0})))
	tp.Reset()
	for i, o := range tp.ops[:cap(tp.ops)] {
		if o != (op{}) {
			t.Fatalf("op %d survives Reset: %+v", i, o)
		}
	}
	for i, v := range tp.args[:cap(tp.args)] {
		if v != nil {
			t.Fatalf("arg %d survives Reset", i)
		}
	}
	for i, v := range tp.vars {
		if v.Val != nil || v.Grad != nil {
			t.Fatalf("var %d still references tensors after Reset", i)
		}
	}
	for i, ts := range tp.tensors {
		if ts.Data != nil {
			t.Fatalf("tensor %d still references data after Reset", i)
		}
	}
}

// TestMatMulBackwardSkipsZeroActivationsUnderNonFiniteGradient spells
// out the one place the backward kernel departs from its defining
// loops: dB's row for a zero a[k] is left alone, where the loops would
// add 0·dOut[j] — ±0 for a finite gradient (no change), NaN for an
// infinite one. A non-finite dOut means the step has already diverged;
// what the skip changes is that the rows facing a zero activation stay
// finite, the backward twin of MatMulInto leaving 0·Inf out.
func TestMatMulBackwardSkipsZeroActivationsUnderNonFiniteGradient(t *testing.T) {
	aVal := FromSlice([]float64{0, 2, math.Copysign(0, -1)})
	w := NewParam(3, 2)
	for i := range w.Val.Data {
		w.Val.Data[i] = float64(i + 1)
	}
	tp := NewTape()
	out := tp.MatMul(tp.ConstRow(aVal.Data), tp.Leaf(w.Val, w.Grad))
	// mse's gradient is out - target: an infinite target makes dOut
	// infinite in column 0 and leaves column 1 finite.
	target := out.Val.Clone()
	target.Data[0] = math.Inf(-1)
	target.Data[1] -= 3
	tp.Backward(mse(tp, out, target))
	want := []float64{
		0, 0, // a[0] = +0: skipped, not 0·Inf = NaN
		math.Inf(1), 6, // a[1] = 2: 2·Inf, 2·3
		0, 0, // a[2] = -0: skipped likewise
	}
	for i, g := range w.Grad.Data {
		if g != want[i] {
			t.Fatalf("dB[%d] = %v, want %v (all of dB: %v)", i, g, want[i], w.Grad.Data)
		}
	}
}
