package nn

import "sync"

// Inference is an inference-only execution context: forward passes run
// directly on tensors with no tape, no backward closures and no gradient
// allocation. Scratch tensors are recycled across calls, so a context
// that serves same-shaped batches reaches a steady state of zero heap
// allocations per forward pass — the property the serving hot path is
// built on.
//
// An Inference is NOT safe for concurrent use; obtain one per goroutine
// from GetInference and return it with Release. Tensors handed out by
// Tensor are owned by the context and must not be retained across
// Release.
type Inference struct {
	tensors []*Tensor
	used    int
}

var inferencePool = sync.Pool{New: func() any { return new(Inference) }}

// GetInference returns a reusable inference context from the shared
// pool. Pair with Release.
func GetInference() *Inference { return inferencePool.Get().(*Inference) }

// Release resets the context and returns it to the shared pool. Any
// tensor obtained from it becomes invalid.
func (inf *Inference) Release() {
	inf.used = 0
	inferencePool.Put(inf)
}

// Reset invalidates every tensor handed out so far, making their storage
// reusable by subsequent Tensor calls without going back to the pool.
func (inf *Inference) Reset() { inf.used = 0 }

// Tensor returns a zeroed rows x cols scratch tensor owned by the
// context. Storage is recycled from earlier passes when large enough;
// otherwise the slot grows (and keeps the larger capacity for next
// time), so per-call allocations vanish once the context has seen its
// steady-state shapes.
func (inf *Inference) Tensor(rows, cols int) *Tensor {
	t := inf.TensorUninit(rows, cols)
	for i := range t.Data {
		t.Data[i] = 0
	}
	return t
}

// TensorUninit is Tensor without the zeroing: recycled storage keeps
// whatever the previous pass left in it. Only for destinations every
// row of which is fully overwritten before being read (MatMulInto
// output, gather/scatter staging) — it skips the memclr that would be
// pure waste there.
func (inf *Inference) TensorUninit(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic("nn: invalid inference tensor shape")
	}
	if inf.used == len(inf.tensors) {
		inf.tensors = append(inf.tensors, &Tensor{})
	}
	t := inf.tensors[inf.used]
	inf.used++
	n := rows * cols
	if cap(t.Data) < n {
		t.Data = make([]float64, n)
	} else {
		t.Data = t.Data[:n]
	}
	t.Rows, t.Cols = rows, cols
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

// InferInto is Infer into a caller-owned destination (x.Rows x l.Out,
// prior contents ignored), with negatives clamped to zero if relu — the
// hidden layers of an MLP. A trainer keeps these rows for its backward
// pass.
func (l *Linear) InferInto(dst, x *Tensor, relu bool) {
	matMulBiasInto(dst, x, l.W.Val, l.B.Val, relu)
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
