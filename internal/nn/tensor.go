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

// Wrap builds a rows x cols tensor viewing data without copying — the
// zero-copy bridge from externally packed feature matrices (e.g. an
// encoding.BatchGraph slab) into tensor operations. The caller keeps
// ownership of data.
func Wrap(rows, cols int, data []float64) *Tensor {
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		panic(fmt.Sprintf("nn: Wrap shape %dx%d does not fit %d values", rows, cols, len(data)))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at (r, c).
func (t *Tensor) At(r, c int) float64 { return t.Data[r*t.Cols+c] }

// Set assigns the element at (r, c).
func (t *Tensor) Set(r, c int, v float64) { t.Data[r*t.Cols+c] = v }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
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

// AddRowBroadcast adds the 1 x Cols row vector to every row of t — the
// inference-mode bias addition (the tape path adds the bias to one row
// at a time; per element the operation is identical).
func (t *Tensor) AddRowBroadcast(row *Tensor) {
	if row.Rows != 1 || row.Cols != t.Cols {
		panic(fmt.Sprintf("nn: broadcast add %dx%d onto %dx%d", row.Rows, row.Cols, t.Rows, t.Cols))
	}
	for r := 0; r < t.Rows; r++ {
		d := t.Data[r*t.Cols : (r+1)*t.Cols]
		for j, v := range row.Data {
			d[j] += v
		}
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
// ascending k, and a term whose av is zero is left out altogether (so
// 0·Inf and 0·NaN contribute nothing rather than NaN). Nothing else
// about the loop nest is fixed. Each row's non-zero a[k] are gathered
// as the scan meets them — which is the zero skip — and consumed four
// at a time with the destination element held in a register, so dst is
// read and written once per four terms and the branch is outside the
// inner loop. The products add straight onto the accumulator, as the
// original `drow[j] += av * bv` did, so a target that fuses multiply-
// adds fuses exactly the ones it fused before.
func MatMulInto(dst, a, b *Tensor) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d @ %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		clear(drow)
		var (
			av   [4]float64
			at   [4]int // offsets of the gathered rows of b
			held int
		)
		for k, v := range a.Data[i*a.Cols : (i+1)*a.Cols] {
			if v == 0 {
				continue
			}
			av[held], at[held] = v, k*n
			if held++; held == 4 {
				axpy4(drow, b.Data, &av, &at)
				held = 0
			}
		}
		for h := 0; h < held; h++ {
			axpy(drow, av[h], b.Data[at[h]:])
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

// XavierInit fills the tensor with Glorot-uniform random values.
func (t *Tensor) XavierInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(t.Rows+t.Cols))
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}
