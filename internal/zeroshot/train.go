package zeroshot

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
	"github.com/zeroshot-db/zeroshot/internal/par"
)

// The packed trainer. A minibatch's graphs are packed into
// encoding.BatchGraphs and go through fusedForward, PredictBatch's own
// pass — one pass per node-type encoder, per combine level and for the
// readout — which leaves each layer's input and output rows in slabs.
// The backward pass walks the same slabs in reverse, level by level,
// and leaves each layer with the gradient at its output for every row.
// Only then are the parameter gradients summed, each element's terms in
// exactly the order the per-sample tape added them:
//
//   - ascending shard (shardBounds over the minibatch), each shard's
//     terms summed onto +0 and that partial added to Param.Grad;
//   - within a shard, ascending sample;
//   - within a sample, descending node index — the tape recorded nodes
//     ascending and replayed them backwards.
//
// The activation gradients follow the tape's order too. A node's hidden
// state takes, onto +0, the readout's gradient first if it is its
// graph's root (the readout was recorded last), then each parent's
// child-sum gradient in descending parent index, once per time the
// parent lists it — which is not level order once a node has parents on
// three levels. With the terms in that order, and every product rounded
// as the tape rounded it, the packed trainer's weights are the tape's,
// bit for bit, at any GOMAXPROCS.

// partGrain is the fewest graphs a part of a minibatch packs: below
// twice this the minibatch runs as one part on the calling goroutine.
const partGrain = 4

// gradRows is how many weight rows one parameter-gradient job sums.
const gradRows = 32

// hasInputGrad reports whether family f's layer l hands a gradient to
// its input, and so needs its weight transposed for the backward pass:
// every layer but an encoder's first, whose input is the constant
// feature rows.
func hasInputGrad(f, l int) bool { return f >= famCombine || l > 0 }

// layer returns layer l's input rows and the gradient at its output.
func (s *slab) layer(l int) (x, d *nn.Tensor) {
	if l == 0 {
		return &s.in, &s.dH
	}
	return &s.h, &s.dOut
}

// graphRows returns local graph g's rows in the tape's order.
func (s *slab) graphRows(g int) []int32 {
	lo := int32(0)
	if g > 0 {
		lo = s.ends[g-1]
	}
	return s.rows[lo:s.ends[g]]
}

// part is a contiguous run of a minibatch's samples, packed and taken
// through the forward and activation-backward passes on one goroutine.
type part struct {
	lo     int // the part's first minibatch position
	graphs []*encoding.Graph
	bg     encoding.BatchGraph
	inf    nn.Inference
	slabs  [numFams]slab
	// pos is each combined node's row in the combine slab, its place in
	// bg.LevelOrder; rootOf the graph a node is the root of, or -1.
	// parents[parStart[i]:parStart[i+1]] are node i's parents,
	// descending, a parent listed once per time it lists i; fill is
	// their build cursor.
	pos, rootOf             []int32
	parStart, parents, fill []int32
	flatGrad                []float64
}

// trainScratch is one training run's working state. Nothing in it is
// shaped by a model until bind, and release drops every reference to the
// model and its samples, so it is pooled across models: the adaptation
// loop fine-tunes a fresh clone every cycle, and a cycle's clone trains
// on the buffers the previous cycle's grew.
type trainScratch struct {
	m       *Model
	samples []Sample
	mb      []int

	parts    []*part
	owner    []*part   // owner[g]: the part holding minibatch position g
	loss     []float64 // loss[g]: position g's sample loss
	nextPart atomic.Int64

	jobs    []gradJob
	nextJob atomic.Int64
	partial []float64 // the jobs' shard partials, one region per parameter

	// wt[f][l] is family f's layer-l weight transposed, for the layers
	// that hand their input a gradient (hasInputGrad), refreshed every
	// optimizer step: the backward pass's dA runs over it.
	wt     [numFams][2]nn.Tensor
	wtData []float64

	// The par.Blocks bodies, built once so a step allocates no closure.
	partFn, jobFn func(lo, hi int)
}

// trainFree holds the idle scratches. Not a sync.Pool: its per-P
// private slot cannot be stolen, so a run whose goroutine had moved to
// another P since the last release — or any run after two GCs — started
// cold and regrew every buffer. The list holds at most as many scratches
// as training runs ever overlapped.
var trainFree struct {
	sync.Mutex
	list []*trainScratch
}

// getTrainScratch returns an idle scratch, or a new one.
func getTrainScratch() *trainScratch {
	trainFree.Lock()
	defer trainFree.Unlock()
	if n := len(trainFree.list); n > 0 {
		st := trainFree.list[n-1]
		trainFree.list = trainFree.list[:n-1]
		return st
	}
	st := new(trainScratch)
	st.partFn = func(lo, hi int) {
		i := int(st.nextPart.Add(1)) - 1
		if st.parts[i] == nil {
			st.parts[i] = new(part)
		}
		st.parts[i].run(st, lo, hi)
	}
	st.jobFn = func(int, int) {
		for {
			i := int(st.nextJob.Add(1)) - 1
			if i >= len(st.jobs) {
				return
			}
			st.jobs[i].run(st)
		}
	}
	return st
}

// gradJob sums weight rows [lo, hi) of one parameter's gradient — or,
// for a bias, its one row — over the minibatch, shard by shard. Jobs of
// one parameter write disjoint rows of its gradient and of its partial.
type gradJob struct {
	fam, layer int
	p          *nn.Param
	lo, hi     int
	bias       bool
	partial    nn.Tensor // p's shape
}

// bind shapes the scratch for m: the gradient jobs, their partials and
// the transposed weights.
func (st *trainScratch) bind(m *Model, samples []Sample) {
	st.m, st.samples = m, samples
	st.jobs = st.jobs[:0]
	size, wtSize := 0, 0
	for f := 0; f < numFams; f++ {
		for l, lin := range m.mlp(f).Layers {
			st.jobs = append(st.jobs, gradJob{fam: f, layer: l, p: lin.B, lo: 0, hi: 1, bias: true})
			for k := 0; k < lin.In; k += gradRows {
				st.jobs = append(st.jobs, gradJob{fam: f, layer: l, p: lin.W, lo: k, hi: min(k+gradRows, lin.In)})
			}
			size += (lin.In + 1) * lin.Out
			if hasInputGrad(f, l) {
				wtSize += lin.In * lin.Out
			}
		}
	}
	if cap(st.partial) < size {
		st.partial = make([]float64, size)
	}
	if cap(st.wtData) < wtSize {
		st.wtData = make([]float64, wtSize)
	}
	off := 0
	for i := range st.jobs {
		j := &st.jobs[i]
		if i > 0 && st.jobs[i-1].p == j.p {
			j.partial = st.jobs[i-1].partial
			continue
		}
		n := j.p.Val.Rows * j.p.Val.Cols
		j.partial = nn.Tensor{Rows: j.p.Val.Rows, Cols: j.p.Val.Cols, Data: st.partial[off : off+n]}
		off += n
	}
	off = 0
	for f := 0; f < numFams; f++ {
		for l, lin := range m.mlp(f).Layers {
			if hasInputGrad(f, l) {
				st.wt[f][l] = nn.Tensor{Rows: lin.Out, Cols: lin.In, Data: st.wtData[off : off+lin.In*lin.Out]}
				off += lin.In * lin.Out
			}
		}
	}
}

// release drops the scratch's references to the model, its samples and
// their graphs, and returns it to the free list.
func (st *trainScratch) release() {
	st.m, st.samples, st.mb = nil, nil, nil
	clear(st.owner)
	clear(st.jobs)
	st.jobs = st.jobs[:0]
	for _, p := range st.parts {
		if p != nil {
			clear(p.graphs)
		}
	}
	trainFree.Lock()
	trainFree.list = append(trainFree.list, st)
	trainFree.Unlock()
}

// step adds one minibatch's gradients — the samples at positions mb of
// the bound samples — to the parameters' Grad and returns epochLoss
// plus the minibatch's shard losses, folded in shard order. The forward
// and activation-backward passes run across contiguous parts of the
// minibatch, the parameter gradients across (parameter, row block) jobs,
// both on the par pool; neither split reaches a single bit.
func (st *trainScratch) step(mb []int, epochLoss float64) float64 {
	st.mb = mb
	for f := 0; f < numFams; f++ {
		for l, lin := range st.m.mlp(f).Layers {
			if hasInputGrad(f, l) {
				lin.W.Val.TransposeInto(&st.wt[f][l])
			}
		}
	}
	if len(st.parts) < len(mb) {
		st.parts = append(st.parts, make([]*part, len(mb)-len(st.parts))...)
		st.owner = make([]*part, len(mb))
		st.loss = make([]float64, len(mb))
	}
	st.nextPart.Store(0)
	par.Blocks(len(mb), partGrain, st.partFn) // no block is empty: every part packs a graph
	st.nextJob.Store(0)
	par.Blocks(len(st.jobs), 1, st.jobFn)
	shards := min(len(mb), maxGradShards)
	for s := 0; s < shards; s++ {
		lo, hi := shardBounds(len(mb), shards, s)
		loss := 0.0
		for _, l := range st.loss[lo:hi] {
			loss += l
		}
		epochLoss += loss
	}
	return epochLoss
}

// run takes minibatch positions [lo, hi) through the forward pass, the
// loss and the activation-backward pass.
func (p *part) run(st *trainScratch, lo, hi int) {
	p.lo = lo
	p.graphs = p.graphs[:0]
	for g, si := range st.mb[lo:hi] {
		p.graphs = append(p.graphs, st.samples[si].Graph)
		st.owner[lo+g] = p
	}
	p.bg.Pack(p.graphs)
	p.inf.Reset()
	st.m.fusedForward(&p.inf, &p.bg, &p.slabs)
	p.backward(st)
	p.order(st.m.cfg.FlatSum)
}

// huberDelta is the robust-loss threshold on log-runtime residuals.
const huberDelta = 1.0

// huber returns the tape's HuberLoss of one prediction and the gradient
// its backward seeds at the prediction, each computed onto +0 as the
// tape's op computes it.
func huber(pred, target, delta float64) (loss, grad float64) {
	d := pred - target
	if math.Abs(d) <= delta {
		loss += 0.5 * d * d
	} else {
		loss += delta * (math.Abs(d) - 0.5*delta)
	}
	switch {
	case d > delta:
		grad += delta
	case d < -delta:
		grad -= delta
	default:
		grad += d
	}
	return loss, grad
}

// backprop fills dH from dOut and, if dIn is not nil, dIn from dH: the
// tape's backward through Linear, ReLU, Linear for every row at once, over
// the transposed weights wt1 and wt0. The clamp's gradient is the
// output's where h is positive — exactly where the pre-clamp value was —
// and +0 elsewhere; a gradient that BackpropInto summed onto +0 is never
// -0, so passing it through unchanged is the tape's add onto +0.
func backprop(dOut, h, dH, dIn, wt1, wt0 *nn.Tensor) {
	nn.BackpropInto(dH, dOut, wt1)
	for i, v := range h.Data {
		if !(v > 0) {
			dH.Data[i] = 0
		}
	}
	if dIn != nil {
		nn.BackpropInto(dIn, dH, wt0)
	}
}

// backward computes the sample losses and every slab's activation
// gradients: readout, then the combine levels top down (or flat-sum's
// pooling), then the encoders.
func (p *part) backward(st *trainScratch) {
	m := st.m
	bg, inf, hd := &p.bg, &p.inf, m.cfg.Hidden
	r := &p.slabs[famReadout]
	r.dOut = *inf.TensorUninit(bg.NumGraphs, 1)
	for g := 0; g < bg.NumGraphs; g++ {
		target := math.Log(st.samples[st.mb[p.lo+g]].RuntimeSec)
		st.loss[p.lo+g], r.dOut.Data[g] = huber(r.out.Data[g], target, huberDelta)
	}
	r.dH, r.dIn = *inf.TensorUninit(bg.NumGraphs, hd), *inf.TensorUninit(bg.NumGraphs, hd)
	backprop(&r.dOut, &r.h, &r.dH, &r.dIn, &st.wt[famReadout][1], &st.wt[famReadout][0])

	for t := 0; t < encoding.NumNodeTypes; t++ {
		if n := bg.TypeCount[t]; n > 0 {
			p.slabs[t].dOut = *inf.TensorUninit(n, hd)
		}
	}
	if m.cfg.FlatSum {
		p.poolBackward(hd)
	} else {
		p.passBackward(st, hd)
	}
	for t := 0; t < encoding.NumNodeTypes; t++ {
		if n := bg.TypeCount[t]; n > 0 {
			s := &p.slabs[t]
			s.dH = *inf.TensorUninit(n, hd)
			backprop(&s.dOut, &s.h, &s.dH, nil, &st.wt[t][1], nil)
		}
	}
}

// poolBackward is flat-sum's: the readout's gradient at a graph's mean,
// scaled onto +0, is every one of its nodes' encoder-output gradient.
func (p *part) poolBackward(hd int) {
	bg := &p.bg
	dRoots := p.slabs[famReadout].dIn.Data
	p.flatGrad = grow(p.flatGrad, hd)
	for g := 0; g < bg.NumGraphs; g++ {
		start, end := int(bg.GraphStart[g]), int(bg.GraphStart[g+1])
		s := 1 / float64(end-start)
		for k, v := range dRoots[g*hd : (g+1)*hd] {
			p.flatGrad[k] = 0
			p.flatGrad[k] += v * s
		}
		for i := start; i < end; i++ {
			r := int(bg.TypeRow[i])
			copy(p.slabs[bg.Types[i]].dOut.Data[r*hd:(r+1)*hd], p.flatGrad)
		}
	}
}

// passBackward is message passing's: the combine levels top down, each
// node's hidden-state gradient pulled from its graph's readout and its
// parents before its level runs, then the encoder-output gradients —
// the first half of a combined node's input gradient, or a leaf's pulled
// hidden-state gradient.
func (p *part) passBackward(st *trainScratch, hd int) {
	bg := &p.bg
	n := bg.NumNodes
	p.pos = grow(p.pos, n)
	for j, i := range bg.LevelOrder {
		p.pos[i] = int32(j)
	}
	p.parStart = grow(p.parStart, n+1)
	clear(p.parStart)
	for _, c := range bg.Children {
		p.parStart[c+1]++
	}
	for i := 0; i < n; i++ {
		p.parStart[i+1] += p.parStart[i]
	}
	p.fill = append(p.fill[:0], p.parStart[:n]...)
	p.parents = grow(p.parents, len(bg.Children))
	for par := int32(n - 1); par >= 0; par-- {
		for _, c := range bg.ChildrenOf(par) {
			p.parents[p.fill[c]] = par
			p.fill[c]++
		}
	}
	p.rootOf = grow(p.rootOf, n)
	for i := range p.rootOf {
		p.rootOf[i] = -1
	}
	for g, r := range bg.Roots {
		p.rootOf[r] = int32(g)
	}

	c := &p.slabs[famCombine]
	if nc := len(bg.LevelOrder); nc > 0 {
		inf := &p.inf
		c.dOut, c.dH, c.dIn = *inf.TensorUninit(nc, hd), *inf.TensorUninit(nc, hd), *inf.TensorUninit(nc, 2*hd)
		for lvl := bg.NumLevels(); lvl >= 1; lvl-- {
			a, nodes := int(bg.LevelStart[lvl-1]), bg.Level(lvl)
			for j, i := range nodes {
				p.pull(c.dOut.Data[(a+j)*hd:(a+j+1)*hd], i, hd)
			}
			b := a + len(nodes)
			dOut, h, dH, dIn := rowsOf(&c.dOut, a, b), rowsOf(&c.h, a, b), rowsOf(&c.dH, a, b), rowsOf(&c.dIn, a, b)
			backprop(&dOut, &h, &dH, &dIn, &st.wt[famCombine][1], &st.wt[famCombine][0])
		}
	}
	for i := 0; i < n; i++ {
		r := int(bg.TypeRow[i])
		dst := p.slabs[bg.Types[i]].dOut.Data[r*hd : (r+1)*hd]
		if bg.ChildStart[i] < bg.ChildStart[i+1] {
			copy(dst, c.dIn.Data[int(p.pos[i])*2*hd:][:hd])
		} else {
			p.pull(dst, int32(i), hd)
		}
	}
}

// pull writes node i's hidden-state gradient into dst: onto +0, the
// readout's if i is a root, then each parent's child-sum gradient in
// descending parent index — the order the tape's backward added them.
func (p *part) pull(dst []float64, i int32, hd int) {
	clear(dst)
	if g := int(p.rootOf[i]); g >= 0 {
		for k, v := range p.slabs[famReadout].dIn.Data[g*hd : (g+1)*hd] {
			dst[k] += v
		}
	}
	for _, par := range p.parents[p.parStart[i]:p.parStart[i+1]] {
		for k, v := range p.slabs[famCombine].dIn.Data[int(p.pos[par])*2*hd+hd:][:hd] {
			dst[k] += v
		}
	}
}

// order lists every slab's rows in the tape's order.
func (p *part) order(flatSum bool) {
	bg := &p.bg
	for f := range p.slabs {
		s := &p.slabs[f]
		s.rows, s.ends = s.rows[:0], s.ends[:0]
	}
	c, r := &p.slabs[famCombine], &p.slabs[famReadout]
	for g := 0; g < bg.NumGraphs; g++ {
		for i := bg.GraphStart[g+1] - 1; i >= bg.GraphStart[g]; i-- {
			s := &p.slabs[bg.Types[i]]
			s.rows = append(s.rows, bg.TypeRow[i])
			if !flatSum && bg.ChildStart[i] < bg.ChildStart[i+1] {
				c.rows = append(c.rows, p.pos[i])
			}
		}
		r.rows = append(r.rows, int32(g))
		for f := range p.slabs {
			s := &p.slabs[f]
			s.ends = append(s.ends, int32(len(s.rows)))
		}
	}
}

// run sums the job's rows of its parameter's gradient: per shard, every
// row of the shard's samples in the tape's order onto a +0 partial, and
// the partial onto Param.Grad — skipped when the shard has no rows for
// this layer, since adding +0 to a gradient that is never -0 changes
// nothing. The fold is a row update with input 1 too (1·v is v), so it
// runs on AddOuter's kernel as the bias's terms do.
func (j *gradJob) run(st *trainScratch) {
	n := j.p.Val.Cols
	part := nn.Tensor{Rows: 1, Cols: (j.hi - j.lo) * n, Data: j.partial.Data[j.lo*n : j.hi*n]}
	grad := nn.Tensor{Rows: 1, Cols: part.Cols, Data: j.p.Grad.Data[j.lo*n : j.hi*n]}
	shards := min(len(st.mb), maxGradShards)
	for s := 0; s < shards; s++ {
		glo, ghi := shardBounds(len(st.mb), shards, s)
		fresh := true
		for g := glo; g < ghi; g++ {
			p := st.owner[g]
			sl := &p.slabs[j.fam]
			rows := sl.graphRows(g - p.lo)
			if len(rows) == 0 {
				continue
			}
			if fresh {
				clear(part.Data)
				fresh = false
			}
			x, d := sl.layer(j.layer)
			if j.bias {
				x = nil
			}
			nn.AddOuter(&j.partial, x, d, rows, j.lo, j.hi)
		}
		if !fresh {
			nn.AddOuter(&grad, nil, &part, firstRow, 0, 1)
		}
	}
}

// firstRow lists a one-row tensor's row.
var firstRow = []int32{0}

// grow returns s resized to n, reallocated only when its capacity is
// short; the contents are whatever was there.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
