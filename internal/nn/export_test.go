package nn

import (
	"fmt"
	"math"
)

// Test-only surface: the inference context, layers and tensor helpers the
// package's tests pin contracts through, which no program calls.

// Tensor is TensorUninit with the storage zeroed.
func (inf *Inference) Tensor(rows, cols int) *Tensor {
	t := inf.TensorUninit(rows, cols)
	for i := range t.Data {
		t.Data[i] = 0
	}
	return t
}

// Infer runs the layer forward-only on a batch of row vectors: every
// row of x maps to the corresponding row of the result, bitwise
// identical to applying the tape path row by row (same matmul inner
// order, same bias additions).
func (l *Linear) Infer(inf *Inference, x *Tensor) *Tensor { return l.infer(inf, x, false) }

// infer is Infer with the ReLU that follows a hidden layer folded into
// the pass that writes the output.
func (l *Linear) infer(inf *Inference, x *Tensor, relu bool) *Tensor {
	out := inf.TensorUninit(x.Rows, l.Out) // every row is overwritten
	l.InferInto(out, x, relu)
	return out
}

// Infer runs the MLP forward-only on a batch of row vectors (ReLU
// between layers, linear final layer — the exact shape of Apply, minus
// the tape).
func (m *MLP) Infer(inf *Inference, x *Tensor) *Tensor {
	h := x
	for i, l := range m.Layers {
		h = l.infer(inf, h, i+1 < len(m.Layers))
	}
	return h
}

// Wrap builds a rows x cols tensor viewing data without copying. The
// caller keeps ownership of data.
func Wrap(rows, cols int, data []float64) *Tensor {
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		panic(fmt.Sprintf("nn: Wrap shape %dx%d does not fit %d values", rows, cols, len(data)))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at (r, c).
func (t *Tensor) At(r, c int) float64 { return t.Data[r*t.Cols+c] }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := NewTensor(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
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

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}
