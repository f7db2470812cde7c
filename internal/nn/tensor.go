// Package nn is a small neural-network library built for this reproduction:
// dense float64 tensors, tape-based reverse-mode automatic differentiation,
// linear layers and MLPs, the Adam optimizer, and gob model serialization.
//
// It substitutes for the PyTorch stack the paper's prototype uses ("no GNN
// training ecosystem" exists for offline stdlib-only Go). The dynamic tape
// is what makes the zero-shot model possible: every query plan is a
// different DAG, so the computation graph must be rebuilt per sample, and
// gradients must flow through whatever structure was built.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix of float64.
type Tensor struct {
	Rows, Cols int
	Data       []float64
}

// NewTensor allocates a zeroed rows x cols tensor.
func NewTensor(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice builds a 1 x len(v) row vector copying v.
func FromSlice(v []float64) *Tensor {
	t := NewTensor(1, len(v))
	copy(t.Data, v)
	return t
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// sameShape panics unless a and b have identical shapes; shape mismatches
// are programming errors, not runtime conditions.
func sameShape(a, b *Tensor, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// AddInPlace accumulates other into t.
func (t *Tensor) AddInPlace(other *Tensor) {
	sameShape(t, other, "add")
	for i, v := range other.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// ReLUInPlace clamps negative elements to zero.
func (t *Tensor) ReLUInPlace() {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
}

// MatMulInto computes dst = a @ b, overwriting dst (which may hold
// arbitrary prior contents — each output row is zeroed before its
// accumulation, so uninitialized scratch is a valid destination). dst
// must be preallocated a.Rows x b.Cols.
//
// The bitwise contracts (fused ≡ tape, training at any width, the
// golden transcripts) rest on one property of this kernel: every
// dst[i][j] starts at +0 and accumulates its av·b[k][j] terms in
// ascending k, each product rounded on its own, and a term whose av is
// zero is left out altogether (so 0·Inf and 0·NaN contribute nothing
// rather than NaN). Nothing else about the loop nest is fixed, and the
// kernel has two spellings of it that agree bit for bit (see addRows).
func MatMulInto(dst, a, b *Tensor) {
	checkMatMul(dst, a, b)
	matMulRows(dst, a, b, nil, false)
}

// matMulBiasInto is MatMulInto followed by AddRowBroadcast(bias) and,
// if relu, ReLUInPlace — the same three results per element, produced
// in the pass that finishes each row instead of two more walks over
// dst.
func matMulBiasInto(dst, a, b, bias *Tensor, relu bool) {
	checkMatMul(dst, a, b)
	if bias.Rows != 1 || bias.Cols != dst.Cols {
		panic(fmt.Sprintf("nn: broadcast add %dx%d onto %dx%d", bias.Rows, bias.Cols, dst.Rows, dst.Cols))
	}
	matMulRows(dst, a, b, bias.Data[:dst.Cols], relu)
}

func checkMatMul(dst, a, b *Tensor) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d @ %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

// gatherBlock is how many a[k] one gather scans before handing the
// non-zero ones to addRows: the positions live in a fixed stack array,
// so a row wider than this is consumed in several calls (the model's
// widest is exactly one).
const gatherBlock = 64

// matMulRows is the kernel's outer loop; the shapes have been checked.
// Per row of a it gathers the positions of the non-zero a[k], ascending
// — which is the zero skip — and hands them to addRows, the bias and
// clamp riding on the call that finishes the row.
func matMulRows(dst, a, b *Tensor, bias []float64, relu bool) {
	n, kdim := b.Cols, a.Cols
	bd := b.Data[:kdim*n] // every row a gathered k can name lies inside
	var ks [gatherBlock]int
	for i := 0; i < a.Rows; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		arow := a.Data[i*kdim : (i+1)*kdim]
		clear(drow)
		base := 0
		for ; kdim-base > gatherBlock; base += gatherBlock {
			held := gatherNonZero(&ks, arow[base:][:gatherBlock], base)
			addRows(drow, arow, bd, ks[:held], nil, false)
		}
		held := gatherNonZero(&ks, arow[base:], base)
		addRows(drow, arow, bd, ks[:held], bias, relu)
	}
}

// gatherNonZero writes base+k for every non-zero blk[k], ascending,
// into ks and returns how many; len(blk) is at most gatherBlock. There
// is no data-dependent branch in either spelling: every position is
// stored and the count advances by whether the value was non-zero, so a
// post-ReLU row (zeros wherever the data put them) costs no
// mispredictions — the branchy scan was most of a level's time once the
// multiplies went four wide.
func gatherNonZero(ks *[gatherBlock]int, blk []float64, base int) int {
	if useAVX2 {
		return gatherNonZeroAVX2(ks, blk, base)
	}
	return gatherNonZeroGo(ks, blk, base)
}

// gatherNonZeroGo is the portable gather. Float64bits(v)<<1 != 0 is
// v != 0 for every v (false for ±0 alone, true for NaN), spelled so
// that it compiles to a conditional move, not a jump. Kept out of line:
// inlined into matMulRows, the count and the index both spill to the
// stack and the scan runs a third slower.
//
//go:noinline
func gatherNonZeroGo(ks *[gatherBlock]int, blk []float64, base int) int {
	held := 0
	for k, v := range blk {
		ks[held&(gatherBlock-1)] = base + k // held <= k < gatherBlock: the mask only drops the bounds check
		if math.Float64bits(v)<<1 != 0 {
			held++
		}
	}
	return held
}

// addRows adds a[k]·(row k of b) onto dst for each k of ks in order,
// then the bias if there is one, then clamps negatives to zero if relu:
// per element,
//
//	d := dst[j]
//	for _, k := range ks { d += a[k] * b[k*n+j] }
//	if bias != nil { d += bias[j] }
//	if relu && d < 0 { d = 0 }
//
// One contract, two spellings. Where useAVX2 is set the assembly does
// exactly this four columns to an instruction, with the destination in
// registers across all of ks. Elsewhere the Go loops below do, four
// terms to a pass over dst (axpy4) and then the odd ones (axpy). Lanes
// and passes both run across j only: what is added to one element, and
// in what order, is the same list either way, so the bits are.
//
// About fused multiply-add. On amd64 gc rounds `d += a*b` in two steps
// at every GOAMD64 level — Go 1.24 at v3 emits VFMADD only for
// math.FMA — and so does the assembly: that is how the goldens were
// recorded. On arm64 gc fuses the Go loops. Within one binary fused ≡
// tape holds either way, because the batched pass and the tape call
// this same function for the same len(dst).
func addRows(dst, a, b []float64, ks []int, bias []float64, relu bool) {
	if useAVX2 {
		axpyRowsAVX2(dst, a, b, ks, bias, relu)
		return
	}
	addRowsGo(dst, a, b, ks, bias, relu)
}

// addRowsGo is the portable addRows, and the oracle for the assembly.
func addRowsGo(dst, a, b []float64, ks []int, bias []float64, relu bool) {
	n := len(dst)
	h := 0
	for ; h+4 <= len(ks); h += 4 {
		k0, k1, k2, k3 := ks[h], ks[h+1], ks[h+2], ks[h+3]
		av := [4]float64{a[k0], a[k1], a[k2], a[k3]}
		at := [4]int{k0 * n, k1 * n, k2 * n, k3 * n}
		axpy4(dst, b, &av, &at)
	}
	for ; h < len(ks); h++ {
		axpy(dst, a[ks[h]], b[ks[h]*n:])
	}
	for j, v := range bias {
		dst[j] += v
	}
	if relu {
		for j, v := range dst {
			if v < 0 {
				dst[j] = 0
			}
		}
	}
}

// axpy4 adds four scaled rows of b onto dst, in order, per element.
func axpy4(dst, b []float64, av *[4]float64, at *[4]int) {
	n := len(dst)
	a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
	b0, b1, b2, b3 := b[at[0]:][:n], b[at[1]:][:n], b[at[2]:][:n], b[at[3]:][:n]
	for j, d := range dst {
		d += a0 * b0[j]
		d += a1 * b1[j]
		d += a2 * b2[j]
		d += a3 * b3[j]
		dst[j] = d
	}
}

// axpy adds one scaled row onto dst: dst[j] += a * b[j] over len(dst).
func axpy(dst []float64, a float64, b []float64) {
	b = b[:len(dst)]
	for j := range dst {
		dst[j] += a * b[j]
	}
}

// seqKs lists 0, 1, …, gatherBlock-1: the term list of a product that
// leaves no term out.
var seqKs = func() (s [gatherBlock]int) {
	for i := range s {
		s[i] = i
	}
	return s
}()

// BackpropInto computes dst = dOut @ wt, where wt is a layer's weight
// transposed (Out x In): row i of dst is the gradient row i of the
// layer's input receives from row i of dOut. It is the tape's dA
// (matMulBackward) with the loops turned round. There each element is a
// dot product, dOut[i][j]·W[k][j] summed in ascending j onto a local
// that starts at +0, then added to a +0 gradient; here the same terms,
// in the same order, are added onto a +0 destination, with the lanes of
// addRows running across k — what a transposed weight buys. Unlike
// MatMulInto no term is left out: the dot adds dOut[i][j]·W[k][j] when
// dOut[i][j] is zero too. A sum that starts at +0 is never -0, so the
// tape's final add onto +0 changes nothing and the bits agree.
func BackpropInto(dst, dOut, wt *Tensor) {
	checkMatMul(dst, dOut, wt)
	n, jdim := wt.Cols, dOut.Cols
	for i := 0; i < dOut.Rows; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		arow := dOut.Data[i*jdim : (i+1)*jdim]
		clear(drow)
		for base := 0; base < jdim; base += gatherBlock {
			addRows(drow, arow[base:], wt.Data[base*n:], seqKs[:min(gatherBlock, jdim-base)], nil, false)
		}
	}
}

// TransposeInto writes t's transpose into dst, which must be t.Cols x
// t.Rows.
func (t *Tensor) TransposeInto(dst *Tensor) {
	if dst.Rows != t.Cols || dst.Cols != t.Rows {
		panic(fmt.Sprintf("nn: transpose %dx%d into %dx%d", t.Rows, t.Cols, dst.Rows, dst.Cols))
	}
	for r := 0; r < t.Rows; r++ {
		for c, v := range t.Data[r*t.Cols : (r+1)*t.Cols] {
			dst.Data[c*t.Rows+r] = v
		}
	}
}

// AddOuter adds x[r][k]·d[r] onto row k of dst for each row r of rows,
// in the order listed, and each k in [lo, hi) whose x[r][k] is not
// zero: the weight gradient's update dW += Xᵀ·D over those rows of a
// layer's input X and of the gradient D at its output, restricted to
// weight rows [lo, hi). Each product is rounded before the add, and a
// zero x[r][k] contributes nothing, exactly as the tape's dB
// (matMulBackward) does for one row; every element of dst receives its
// terms in the order of rows, so a caller that lists rows in the tape's
// order gets the tape's sums. x is nil for a bias, whose one input is
// 1: each listed row of d is added onto dst's one row, and 1·v is v.
func AddOuter(dst, x, d *Tensor, rows []int32, lo, hi int) {
	n := dst.Cols
	bad := d.Cols != n || lo < 0 || lo > hi || hi > dst.Rows
	if x == nil {
		bad = bad || dst.Rows != 1
	} else {
		bad = bad || x.Cols != dst.Rows
	}
	if bad {
		panic(fmt.Sprintf("nn: AddOuter rows [%d,%d) of a %dx%d gradient from %d-wide gradient rows", lo, hi, dst.Rows, n, d.Cols))
	}
	dd := dst.Data[:dst.Rows*n]
	var ks [gatherBlock]int
	for _, r := range rows {
		drow := d.Data[int(r)*n : (int(r)+1)*n]
		if x == nil {
			addOuterRows(dd, unit[:], drow, seqKs[lo:hi])
			continue
		}
		addOuter(dd, x.Data[int(r)*x.Cols:(int(r)+1)*x.Cols], drow, lo, hi, &ks)
	}
}

// unit is a bias's input.
var unit = [1]float64{1}

// addOuter is one row of AddOuter on checked slices: it gathers the
// non-zero x[k] of [lo, hi), ascending, a gatherBlock at a time into ks,
// and hands them to addOuterRows.
func addOuter(dst, x, d []float64, lo, hi int, ks *[gatherBlock]int) {
	for base := lo; base < hi; base += gatherBlock {
		held := gatherNonZero(ks, x[base:min(base+gatherBlock, hi)], base)
		addOuterRows(dst, x, d, ks[:held])
	}
}

// addOuterRows adds a[k]·d onto row k of dst (row stride len(d)) for
// each k of ks: per element,
//
//	dst[k*n+j] += float64(a[k] * d[j])
//
// The conversion keeps the product rounded on its own where Go would
// otherwise fuse it into the add: the tape's defining loop rounded it
// before adding (g := 0.0; g += a*d; grad += g). Where useAVX2 is set
// the assembly does the same four columns to an instruction, with d
// held in registers across all of ks.
func addOuterRows(dst, a, d []float64, ks []int) {
	if useAVX2 {
		addOuterRowsAVX2(dst, a, d, ks)
		return
	}
	addOuterRowsGo(dst, a, d, ks)
}

// addOuterRowsGo is the portable addOuterRows, and the oracle for the
// assembly.
func addOuterRowsGo(dst, a, d []float64, ks []int) {
	n := len(d)
	for _, k := range ks {
		x, row := a[k], dst[k*n:][:n]
		for j, v := range d {
			row[j] += float64(x * v)
		}
	}
}

// XavierInit fills the tensor with Glorot-uniform random values.
func (t *Tensor) XavierInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(t.Rows+t.Cols))
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}
