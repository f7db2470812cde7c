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
// TensorUninit are owned by the context and must not be retained across
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
// reusable by subsequent TensorUninit calls without going back to the pool.
func (inf *Inference) Reset() { inf.used = 0 }

// TensorUninit returns a rows x cols scratch tensor owned by the
// context, without zeroing it: recycled storage keeps whatever the
// previous pass left in it, so it is only for destinations every row of
// which is fully overwritten before being read (MatMulInto output,
// gather/scatter staging). Storage is recycled from earlier passes when
// large enough; otherwise the slot grows (and keeps the larger capacity
// for next time), so per-call allocations vanish once the context has
// seen its steady-state shapes.
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

// InferInto runs the layer forward-only on a batch of row vectors into a
// caller-owned destination (x.Rows x l.Out, prior contents ignored), with
// negatives clamped to zero if relu — the hidden layers of an MLP. Every
// row of x maps to the corresponding row of dst, bitwise identical to
// applying the tape path row by row (same matmul inner order, same bias
// additions). A trainer keeps these rows for its backward pass.
func (l *Linear) InferInto(dst, x *Tensor, relu bool) {
	matMulBiasInto(dst, x, l.W.Val, l.B.Val, relu)
}
