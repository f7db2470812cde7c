package nn

import "math"

// Var is one node of the dynamic computation graph: a value tensor and its
// gradient. Vars are created through Tape operations. Grad is nil for a
// constant (Const, ConstRow): Backward never propagates into one, so no
// gradient is allocated, zeroed or computed for it.
type Var struct {
	Val  *Tensor
	Grad *Tensor
}

// opKind names a recorded operation; Backward dispatches on it.
type opKind uint8

const (
	opMatMul opKind = iota
	opAdd
	opSum
	opReLU
	opConcat
	opScale
	opHuber
)

// op is one recorded operation: what Backward needs to push out's
// gradient into the operands. A plain record in a reused slice, not a
// closure, so recording allocates nothing once the slice has grown.
type op struct {
	kind   opKind
	out    *Var
	a, b   *Var    // operands; b is nil for unary operations
	lo, hi int     // Sum, Concat: the operands are Tape.args[lo:hi]
	s      float64 // ScaleVar's factor, HuberLoss's delta
	target *Tensor // HuberLoss
}

// Tape records operations for reverse-mode differentiation. Build the
// forward computation through Tape methods, then call Backward on the
// scalar loss. A Tape is built fresh per training sample, because plan
// graphs differ from sample to sample — but "fresh" does not have to
// mean "heap-allocated": Reset recycles the op log, every Var and
// Tensor struct and the float64 slab behind them, so a tape reused
// across samples reaches a steady state of zero allocations per
// forward+backward.
type Tape struct {
	ops  []op
	args []*Var // variadic operands of Sum and Concat, indexed by op.lo/hi

	// Recycled scratch (see Reset): Var and Tensor structs plus one
	// float64 slab, reused across Reset cycles. used counters index the
	// next free struct, slabOff the next free float.
	vars     []*Var
	varsUsed int
	tensors  []*Tensor
	tensUsed int
	slab     []float64
	slabOff  int
}

// The slab starts at firstSlab floats and, when a sample outgrows it,
// is replaced by one slabGrowth times larger (or as large as the
// request, if that is larger still): a stream of ever-slightly-larger
// plans costs a logarithmic number of slabs, not one per new maximum.
const (
	firstSlab  = 512
	slabGrowth = 2
)

// NewTape creates an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset recycles the tape for the next sample: the op log is dropped
// and every Var, Tensor and slab float handed out so far becomes
// reusable. Values produced by earlier operations are invalid after
// Reset. The recycled structs are cleared, not just forgotten, so a
// reset tape references nothing but its own slab — not the last
// sample's feature rows, not the parameter or gradient tensors its Leaf
// Vars pointed at.
func (tp *Tape) Reset() {
	clear(tp.ops)
	tp.ops = tp.ops[:0]
	clear(tp.args)
	tp.args = tp.args[:0]
	for _, v := range tp.vars[:tp.varsUsed] {
		*v = Var{}
	}
	tp.varsUsed = 0
	for _, t := range tp.tensors[:tp.tensUsed] {
		t.Data = nil
	}
	tp.tensUsed = 0
	tp.slabOff = 0
}

// scratch returns a length-n slice of the tape's slab with whatever the
// previous cycle left in it. When the slab is exhausted a larger one
// replaces it; slices already handed out keep the old one alive until
// the next Reset.
func (tp *Tape) scratch(n int) []float64 {
	if tp.slabOff+n > len(tp.slab) {
		tp.slab = make([]float64, max(firstSlab, slabGrowth*len(tp.slab), n))
		tp.slabOff = 0
	}
	s := tp.slab[tp.slabOff : tp.slabOff+n : tp.slabOff+n]
	tp.slabOff += n
	return s
}

// tensorStruct returns a recycled (or new) Tensor shell with no shape.
func (tp *Tape) tensorStruct() *Tensor {
	if tp.tensUsed == len(tp.tensors) {
		tp.tensors = append(tp.tensors, new(Tensor))
	}
	t := tp.tensors[tp.tensUsed]
	tp.tensUsed++
	return t
}

// tensor returns a rows x cols tensor backed by tape scratch, holding
// arbitrary values: every caller overwrites all of it (a matmul
// destination, a copy, a concatenation) or zeroes it (a gradient).
func (tp *Tape) tensor(rows, cols int) *Tensor {
	t := tp.tensorStruct()
	t.Rows, t.Cols = rows, cols
	t.Data = tp.scratch(rows * cols)
	return t
}

// cloneOf returns a tape-scratch copy of src.
func (tp *Tape) cloneOf(src *Tensor) *Tensor {
	t := tp.tensor(src.Rows, src.Cols)
	copy(t.Data, src.Data)
	return t
}

// varStruct returns a recycled (or new) Var shell.
func (tp *Tape) varStruct() *Var {
	if tp.varsUsed == len(tp.vars) {
		tp.vars = append(tp.vars, new(Var))
	}
	v := tp.vars[tp.varsUsed]
	tp.varsUsed++
	return v
}

// newVar wraps val with a zeroed tape-scratch gradient of matching shape.
func (tp *Tape) newVar(val *Tensor) *Var {
	v := tp.varStruct()
	v.Val = val
	v.Grad = tp.tensor(val.Rows, val.Cols)
	clear(v.Grad.Data)
	return v
}

// Leaf wraps a tensor as a graph input whose gradient accumulates into the
// provided grad tensor (pass the persistent parameter gradient to train).
func (tp *Tape) Leaf(val, grad *Tensor) *Var {
	sameShape(val, grad, "leaf")
	v := tp.varStruct()
	v.Val, v.Grad = val, grad
	return v
}

// Const wraps a tensor as a constant input: it has no gradient.
func (tp *Tape) Const(val *Tensor) *Var {
	v := tp.varStruct()
	v.Val, v.Grad = val, nil
	return v
}

// ConstRow wraps data as a 1 x len(data) constant Var without copying —
// the zero-copy bridge from encoded feature vectors into the graph. The
// caller must not mutate data until Backward completes; tape operations
// never write through Val.
func (tp *Tape) ConstRow(data []float64) *Var {
	t := tp.tensorStruct()
	t.Rows, t.Cols, t.Data = 1, len(data), data
	return tp.Const(t)
}

// record appends o to the op log and returns its output.
func (tp *Tape) record(o op) *Var {
	tp.ops = append(tp.ops, o)
	return o.out
}

// recordArgs copies the variadic operands into the tape's argument list
// (the caller's slice may be a buffer it reuses) and returns their range.
func (tp *Tape) recordArgs(vs []*Var) (lo, hi int) {
	lo = len(tp.args)
	tp.args = append(tp.args, vs...)
	return lo, len(tp.args)
}

// MatMul returns a @ b.
func (tp *Tape) MatMul(a, b *Var) *Var {
	out := tp.newVar(tp.tensor(a.Val.Rows, b.Val.Cols))
	MatMulInto(out.Val, a.Val, b.Val)
	return tp.record(op{kind: opMatMul, out: out, a: a, b: b})
}

// Add returns a + b (same shape).
func (tp *Tape) Add(a, b *Var) *Var {
	sameShape(a.Val, b.Val, "Add")
	out := tp.newVar(tp.cloneOf(a.Val))
	out.Val.AddInPlace(b.Val)
	return tp.record(op{kind: opAdd, out: out, a: a, b: b})
}

// Sum returns the elementwise sum of one or more same-shaped Vars.
func (tp *Tape) Sum(vs ...*Var) *Var {
	if len(vs) == 0 {
		panic("nn: Sum of nothing")
	}
	out := tp.newVar(tp.cloneOf(vs[0].Val))
	for _, v := range vs[1:] {
		out.Val.AddInPlace(v.Val)
	}
	lo, hi := tp.recordArgs(vs)
	return tp.record(op{kind: opSum, out: out, lo: lo, hi: hi})
}

// ReLU returns max(x, 0) elementwise.
func (tp *Tape) ReLU(x *Var) *Var {
	out := tp.newVar(tp.cloneOf(x.Val))
	out.Val.ReLUInPlace()
	return tp.record(op{kind: opReLU, out: out, a: x})
}

// Concat concatenates row vectors (1 x n each) into one 1 x sum(n) vector.
func (tp *Tape) Concat(vs ...*Var) *Var {
	total := 0
	for _, v := range vs {
		if v.Val.Rows != 1 {
			panic("nn: Concat expects row vectors")
		}
		total += v.Val.Cols
	}
	out := tp.newVar(tp.tensor(1, total))
	off := 0
	for _, v := range vs {
		copy(out.Val.Data[off:off+v.Val.Cols], v.Val.Data)
		off += v.Val.Cols
	}
	lo, hi := tp.recordArgs(vs)
	return tp.record(op{kind: opConcat, out: out, lo: lo, hi: hi})
}

// ScaleVar returns x * s for a constant scalar s.
func (tp *Tape) ScaleVar(x *Var, s float64) *Var {
	out := tp.newVar(tp.cloneOf(x.Val))
	out.Val.Scale(s)
	return tp.record(op{kind: opScale, out: out, a: x, s: s})
}

// HuberLoss returns the scalar Huber loss of pred vs target with
// threshold delta, as a 1x1 Var; more robust to runtime outliers than the
// squared error, which it is, bit for bit, at delta = +Inf.
func (tp *Tape) HuberLoss(pred *Var, target *Tensor, delta float64) *Var {
	sameShape(pred.Val, target, "Huber")
	out := tp.newVar(tp.tensor(1, 1))
	loss := 0.0
	for i, p := range pred.Val.Data {
		d := p - target.Data[i]
		if math.Abs(d) <= delta {
			loss += 0.5 * d * d
		} else {
			loss += delta * (math.Abs(d) - 0.5*delta)
		}
	}
	out.Val.Data[0] = loss
	return tp.record(op{kind: opHuber, out: out, a: pred, s: delta, target: target})
}

// Backward seeds the loss gradient with 1 and replays the op log in
// reverse, each record adding its output's gradient into its operands'.
// loss must be a 1x1 Var produced by this tape.
func (tp *Tape) Backward(loss *Var) {
	if loss.Val.Rows != 1 || loss.Val.Cols != 1 || loss.Grad == nil {
		panic("nn: Backward expects a scalar loss")
	}
	loss.Grad.Data[0] = 1
	for i := len(tp.ops) - 1; i >= 0; i-- {
		o := &tp.ops[i]
		d := o.out.Grad.Data
		switch o.kind {
		case opMatMul:
			matMulBackward(o.a, o.b, d)
		case opAdd:
			accumulate(o.a, d)
			accumulate(o.b, d)
		case opSum:
			for _, v := range tp.args[o.lo:o.hi] {
				accumulate(v, d)
			}
		case opConcat:
			for _, v := range tp.args[o.lo:o.hi] {
				accumulate(v, d[:v.Val.Cols])
				d = d[v.Val.Cols:]
			}
		case opReLU:
			if o.a.Grad != nil {
				g := o.a.Grad.Data
				for j, x := range o.a.Val.Data {
					if x > 0 {
						g[j] += d[j]
					}
				}
			}
		case opScale:
			if o.a.Grad != nil {
				g := o.a.Grad.Data
				for j, dv := range d {
					g[j] += dv * o.s
				}
			}
		case opHuber:
			if o.a.Grad != nil {
				g, t, delta := o.a.Grad.Data, o.target.Data, o.s
				for j, p := range o.a.Val.Data {
					diff := p - t[j]
					switch {
					case diff > delta:
						g[j] += d[0] * delta
					case diff < -delta:
						g[j] -= d[0] * delta
					default:
						g[j] += d[0] * diff
					}
				}
			}
		}
	}
}

// accumulate adds d into v's gradient; a constant has none.
func accumulate(v *Var, d []float64) {
	if v.Grad == nil {
		return
	}
	g := v.Grad.Data[:len(d)]
	for i, dv := range d {
		g[i] += dv
	}
}

// matMulBackward pushes dOut, the gradient of out = a @ b, into the
// operands: dA += dOut @ Bᵀ and dB += Aᵀ @ dOut. Like the forward
// kernel it is free to arrange its loops as long as every gradient
// element receives the bits the defining loops give it: the element's
// terms are summed in ascending index onto a local that starts at +0,
// and that sum is then added to the gradient.
//
// dA is a dot product of two contiguous rows per element, four
// elements' dots carried at once (each its own ascending-j chain). It
// stays scalar here: a dot is a sum over j into ONE element, so lanes
// across j would add its terms in a different order, and lanes across k
// need b transposed — which BackpropInto takes, for a trainer that
// transposes each weight once per optimizer step rather than once per
// op. A constant a — the feature row of every encoder's first layer —
// has no gradient, and none is computed.
//
// dB for a row vector a (M = 1, all that training on a tape runs) has
// one term per element, so the sum is the single product av·dOut[j],
// rounded on its own, then added: one row update per non-zero a[k],
// which is addOuter (see addOuterRows for the rounding). (Where the
// defining loop itself was fusable — the general-M sum and dA's dots
// below — the new loop keeps the same expression, so it fuses the same
// way.) Skipping a zero a[k] is exact under two preconditions, both of
// which training maintains:
//
//   - dOut is finite. The skipped term is 0·d, which is ±0 for finite d
//     but NaN for an infinite or NaN d; a non-finite gradient means the
//     step has already diverged, and the skip then leaves the rows of dB
//     that face a zero activation finite instead of NaN — the backward
//     twin of MatMulInto's 0·Inf skip.
//   - the gradient buffer is never -0. Adding the skipped ±0 would turn a
//     -0 into +0; buffers start at +0 and no sum that starts at +0 can
//     produce -0, so there is no -0 to turn.
func matMulBackward(a, b *Var, dOut []float64) {
	m, k, n := a.Val.Rows, a.Val.Cols, b.Val.Cols
	av, bv := a.Val.Data, b.Val.Data
	if a.Grad != nil {
		for i := 0; i < m; i++ {
			drow := dOut[i*n : (i+1)*n]
			ag := a.Grad.Data[i*k : (i+1)*k]
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				b0, b1 := bv[kk*n:][:n], bv[(kk+1)*n:][:n]
				b2, b3 := bv[(kk+2)*n:][:n], bv[(kk+3)*n:][:n]
				var g0, g1, g2, g3 float64
				for j, d := range drow {
					g0 += d * b0[j]
					g1 += d * b1[j]
					g2 += d * b2[j]
					g3 += d * b3[j]
				}
				ag[kk] += g0
				ag[kk+1] += g1
				ag[kk+2] += g2
				ag[kk+3] += g3
			}
			for ; kk < k; kk++ {
				brow := bv[kk*n:][:n]
				g := 0.0
				for j, d := range drow {
					g += d * brow[j]
				}
				ag[kk] += g
			}
		}
	}
	if b.Grad == nil {
		return
	}
	bg := b.Grad.Data
	if m == 1 {
		var ks [gatherBlock]int
		addOuter(bg[:k*n], av, dOut[:n], 0, k, &ks)
		return
	}
	for kk := 0; kk < k; kk++ {
		for j := 0; j < n; j++ {
			g := 0.0
			for i := 0; i < m; i++ {
				g += av[i*k+kk] * dOut[i*n+j]
			}
			bg[kk*n+j] += g
		}
	}
}
