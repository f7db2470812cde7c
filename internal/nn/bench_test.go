package nn

import (
	"math/rand"
	"testing"
)

// The shapes the zero-shot model actually runs. nn cannot import
// encoding, so the first encoder layer's input width is spelled out:
// encoding.OpFeatDim = plan.NumOperators (5) + 4 + encoding.HWFeatDim (5).
const benchOpFeatDim = 14

// benchRows is how many distinct rows a single-row benchmark cycles
// through. Repeating one row lets the branch predictor memorise its
// zero pattern, and whatever the kernel does per element then reads
// about three times cheaper than training — a new plan node every
// call — ever sees it.
const benchRows = 256

// benchPool returns a tensor of at least benchRows rows of width k
// filled by fill, and an m x k view to aim at m of them per iteration
// (viewOf), so cycling allocates nothing.
func benchPool(rng *rand.Rand, m, k int, fill func(rng *rand.Rand, a *Tensor)) (pool, view *Tensor) {
	pool = NewTensor(max(m, benchRows), k)
	fill(rng, pool)
	return pool, &Tensor{Rows: m, Cols: k}
}

// viewOf aims view at the i-th group of view.Rows rows of pool, wrapping
// around; a view as tall as the pool is the whole pool every time.
func viewOf(view, pool *Tensor, i int) *Tensor {
	r := i * view.Rows % (pool.Rows - view.Rows + 1)
	view.Data = pool.Data[r*pool.Cols : (r+view.Rows)*pool.Cols]
	return view
}

// benchMatMul times dst = a @ w for the given shapes, with a filled by
// fill. A row vector (m = 1) is a different one of benchRows each
// iteration.
func benchMatMul(b *testing.B, m, k, n int, fill func(rng *rand.Rand, a *Tensor)) {
	rng := rand.New(rand.NewSource(1))
	w, dst := NewTensor(k, n), NewTensor(m, n)
	w.XavierInit(rng)
	pool, a := benchPool(rng, m, k, fill)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, viewOf(a, pool, i), w)
	}
}

// fillDense writes rows with no zeros at all.
func fillDense(rng *rand.Rand, a *Tensor) { a.XavierInit(rng) }

// fillOpFeatures writes an operator node's feature row: the one-hot
// operator, two log-scaled magnitudes, everything else zero.
func fillOpFeatures(rng *rand.Rand, a *Tensor) {
	for r := 0; r < a.Rows; r++ {
		row := a.Data[r*a.Cols : (r+1)*a.Cols]
		row[rng.Intn(5)] = 1
		row[6], row[7] = rng.Float64(), rng.Float64()
	}
}

// fillPostReLU writes dense rows with about half the entries exact
// zeros — a hidden state after ReLU, which is what every layer but the
// first consumes.
func fillPostReLU(rng *rand.Rand, a *Tensor) {
	for i := range a.Data {
		if v := rng.NormFloat64(); v > 0 {
			a.Data[i] = v
		}
	}
}

func BenchmarkMatMul32x32(b *testing.B) {
	benchMatMul(b, 1, 32, 32, fillDense)
}

// BenchmarkMatMulOneHotRow: the first encoder layer in training, one
// operator node's features against the 14x32 weight.
func BenchmarkMatMulOneHotRow(b *testing.B) {
	benchMatMul(b, 1, benchOpFeatDim, 32, fillOpFeatures)
}

// BenchmarkMatMulCombineRow: the combine MLP's first layer in training,
// [h0 | child sum] against the 64x32 weight.
func BenchmarkMatMulCombineRow(b *testing.B) {
	benchMatMul(b, 1, 64, 32, fillPostReLU)
}

// BenchmarkMatMulFusedLevel: one level of a fused 256-row batch through
// the same weight.
func BenchmarkMatMulFusedLevel(b *testing.B) {
	benchMatMul(b, 256, 64, 32, fillPostReLU)
}

// BenchmarkLinearInferLevel: the same level through a whole hidden
// layer — matmul, bias and ReLU — on a warm Inference, which is what
// MLP.Infer runs for every layer but its last.
func BenchmarkLinearInferLevel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(64, 32, rng)
	l.B.Val.XavierInit(rng)
	x := NewTensor(256, 64)
	fillPostReLU(rng, x)
	inf := GetInference()
	defer inf.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf.Reset()
		l.infer(inf, x, true)
	}
}

// benchMatMulBackward times one forward+backward of loss(a @ w) on a
// recycled tape — what a training step pays per layer — with a as the
// constant feature row (constA) or as an upstream hidden state, a
// different one of benchRows each iteration.
func benchMatMulBackward(b *testing.B, k int, constA bool, fill func(rng *rand.Rand, a *Tensor)) {
	rng := rand.New(rand.NewSource(1))
	w := NewParam(k, 32)
	pool, a := benchPool(rng, 1, k, fill)
	w.Val.XavierInit(rng)
	aGrad, target := NewTensor(1, k), NewTensor(1, 32)
	tp := NewTape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Reset()
		viewOf(a, pool, i)
		var av *Var
		if constA {
			av = tp.ConstRow(a.Data)
		} else {
			av = tp.Leaf(a, aGrad)
		}
		out := tp.MatMul(av, tp.Leaf(w.Val, w.Grad))
		tp.Backward(mse(tp, out, target))
	}
}

func BenchmarkMatMulBackward(b *testing.B) {
	b.Run("OneHotRow", func(b *testing.B) { benchMatMulBackward(b, benchOpFeatDim, true, fillOpFeatures) })
	b.Run("CombineRow", func(b *testing.B) { benchMatMulBackward(b, 64, false, fillPostReLU) })
}

func BenchmarkMLPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	mlp := NewMLP(rng, 16, 32, 32, 1)
	x := NewTensor(1, 16)
	x.XavierInit(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		mlp.Apply(tp, tp.Const(x))
	}
}

func BenchmarkMLPTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	mlp := NewMLP(rng, 16, 32, 32, 1)
	opt := NewAdam(mlp.Params(), 1e-3)
	x := NewTensor(1, 16)
	x.XavierInit(rng)
	target := FromSlice([]float64{0.5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		out := mlp.Apply(tp, tp.Const(x))
		loss := tp.HuberLoss(out, target, 1)
		tp.Backward(loss)
		opt.Step(1)
		opt.ZeroGrad()
	}
}

// benchAdamShapes are the zero-shot model's parameters at its default
// width 32, in Params order (10 753 values): an encoder MLP per node
// type — operator, table, column, predicate and aggregate features
// (14, 3, 6, 6, 5) to 32 to 32 — then the combine MLP (64 to 32 to 32)
// and the readout (32 to 32 to 1), each layer a weight and a bias.
var benchAdamShapes = [][2]int{
	{14, 32}, {1, 32}, {32, 32}, {1, 32},
	{3, 32}, {1, 32}, {32, 32}, {1, 32},
	{6, 32}, {1, 32}, {32, 32}, {1, 32},
	{6, 32}, {1, 32}, {32, 32}, {1, 32},
	{5, 32}, {1, 32}, {32, 32}, {1, 32},
	{64, 32}, {1, 32}, {32, 32}, {1, 32},
	{32, 32}, {1, 32}, {32, 1}, {1, 1},
}

// BenchmarkAdamStep times one optimizer step — the gradient norm, then
// the update — over the zero-shot model's parameters, on each spelling
// of the update, and reports it per parameter value.
func BenchmarkAdamStep(b *testing.B) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	for _, avx2 := range []bool{false, true} {
		name := "go"
		if avx2 {
			name = "avx2"
		}
		b.Run(name, func(b *testing.B) {
			if avx2 && !haveAVX2 {
				b.Skip("NOT RUN: this CPU (or GOARCH) has no AVX2")
			}
			useAVX2 = avx2
			rng := rand.New(rand.NewSource(4))
			var params []*Param
			n := 0
			for _, s := range benchAdamShapes {
				p := NewParam(s[0], s[1])
				p.Val.XavierInit(rng)
				for i := range p.Grad.Data {
					p.Grad.Data[i] = 0.01 * rng.NormFloat64()
				}
				params = append(params, p)
				n += len(p.Val.Data)
			}
			opt := NewAdam(params, 1e-3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.Step(16)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/element")
		})
	}
}
