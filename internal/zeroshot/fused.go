package zeroshot

import (
	"math"
	"sync"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
	"github.com/zeroshot-db/zeroshot/internal/par"
)

// packPool recycles BatchGraph packings across PredictBatch calls so
// steady-state batching reuses the slab buffers.
var packPool = sync.Pool{New: func() any { return new(encoding.BatchGraph) }}

// shardGrain is the minimum graphs per fused shard: below 2*shardGrain
// a batch packs and runs as one fused pass on the calling goroutine
// (the common warm serving batch), above it the batch splits into one
// contiguous shard per core.
const shardGrain = 32

// PredictBatch predicts runtimes in seconds for fused batches of
// encoded plans: graphs are packed into an encoding.BatchGraph and the
// network executes per-node-type encoder slabs, per-level combine slabs
// and a single readout over all roots, on an inference-only nn context
// (no tape, pooled buffers). Large batches split into one contiguous
// shard per core, each its own pack + fused pass on the par worker pool
// — graphs are mutually independent, so sharding scales the whole pass
// (packing included) near-linearly. The result is bitwise identical to
// predicting each graph alone — every packed row goes through the same
// per-row tensor operations a per-graph tape forward runs (pinned
// against the tape oracle kept in the tests), whatever the shard split
// — while doing near-zero allocations at steady state. Safe for
// concurrent use. This is the inference path for one plan as for many.
func (m *Model) PredictBatch(gs []*encoding.Graph) []float64 {
	out := make([]float64, len(gs))
	if len(gs) == 0 {
		return out
	}
	par.Blocks(len(gs), shardGrain, func(lo, hi int) {
		bg := packPool.Get().(*encoding.BatchGraph)
		bg.Pack(gs[lo:hi])
		inf := nn.GetInference()
		var slabs [numFams]slab
		m.fusedForward(inf, bg, &slabs)
		for g, v := range slabs[famReadout].out.Data[:hi-lo] {
			out[lo+g] = runtimeFromLog(v)
		}
		inf.Release()
		packPool.Put(bg)
	})
	return out
}

// Each of the model's MLPs is a family of rows: one encoder per node
// type (families 0 … NumNodeTypes-1), the combine, the readout.
const (
	famCombine = encoding.NumNodeTypes
	famReadout = encoding.NumNodeTypes + 1
	numFams    = encoding.NumNodeTypes + 2
)

// mlp returns family f's network.
func (m *Model) mlp(f int) *nn.MLP {
	switch f {
	case famCombine:
		return m.combine
	case famReadout:
		return m.readout
	}
	return m.encoders[f]
}

// slab is one MLP applied to a slab of rows. Every MLP of the model has
// two layers: layer 0 maps in to h (negatives clamped), layer 1 maps h
// to out. fusedForward fills in, h and out; the trainer's backward pass
// (train.go) fills the rest.
type slab struct {
	in, h, out nn.Tensor
	// dOut is the gradient at out; dH the gradient at h before its clamp
	// (zero where h is not positive); dIn the gradient at in, where in
	// has one. dOut and dH are what layers 1 and 0 hand their weights.
	dOut, dH, dIn nn.Tensor
	// rows lists the slab's rows in the tape's order — graphs ascending
	// and, within a graph, nodes descending; ends[g] is where local graph
	// g's rows stop.
	rows, ends []int32
}

// run applies net to rows [a, b) of the slab.
func (s *slab) run(net *nn.MLP, a, b int) {
	in, h, out := rowsOf(&s.in, a, b), rowsOf(&s.h, a, b), rowsOf(&s.out, a, b)
	net.Layers[0].InferInto(&h, &in, true)
	net.Layers[1].InferInto(&out, &h, false)
}

// rowsOf returns a view of t's rows [lo, hi).
func rowsOf(t *nn.Tensor, lo, hi int) nn.Tensor {
	return nn.Tensor{Rows: hi - lo, Cols: t.Cols, Data: t.Data[lo*t.Cols : hi*t.Cols]}
}

// fusedForward runs the graph network over a packed batch, in three
// stages, leaving every MLP's input, hidden and output rows in slabs:
// the prediction is slabs[famReadout].out, one log-runtime per graph,
// and the trainer keeps the rest for its backward pass.
//
//  1. encoders — one fused pass per node type over its feature slab,
//     scattered to per-node hidden rows;
//  2. combine — one fused pass per topological level over that level's
//     rows of the combine slab (row j is node bg.LevelOrder[j]): each
//     level-k node's input row is [h0 | sum of child hidden states]
//     (children sit at lower levels, so their rows are final);
//  3. readout — one fused pass over the gathered root rows (or, in
//     FlatSum mode, each graph's mean node hidden state).
//
// Every row goes through the operations a per-graph tape forward runs on
// it, in the same order, so the bits are the tape's.
func (m *Model) fusedForward(inf *nn.Inference, bg *encoding.BatchGraph, slabs *[numFams]slab) {
	hd := m.cfg.Hidden
	// Every row of the staging tensors is fully overwritten before being
	// read, so none of them needs the zeroing memclr.
	hidden := inf.TensorUninit(bg.NumNodes, hd).Data
	for t := 0; t < encoding.NumNodeTypes; t++ {
		n := bg.TypeCount[t]
		if n == 0 {
			continue
		}
		s := &slabs[t]
		s.in = nn.Tensor{Rows: n, Cols: encoding.FeatDim(encoding.NodeType(t)), Data: bg.Feats[t]}
		s.h, s.out = *inf.TensorUninit(n, hd), *inf.TensorUninit(n, hd)
		s.run(m.encoders[t], 0, n)
	}
	for i := 0; i < bg.NumNodes; i++ {
		r := int(bg.TypeRow[i])
		copy(hidden[i*hd:(i+1)*hd], slabs[bg.Types[i]].out.Data[r*hd:(r+1)*hd])
	}

	if nc := len(bg.LevelOrder); !m.cfg.FlatSum && nc > 0 {
		c := &slabs[famCombine]
		c.in, c.h, c.out = *inf.TensorUninit(nc, 2*hd), *inf.TensorUninit(nc, hd), *inf.TensorUninit(nc, hd)
		for lvl := 1; lvl <= bg.NumLevels(); lvl++ {
			a, nodes := int(bg.LevelStart[lvl-1]), bg.Level(lvl)
			for j, i := range nodes {
				row := c.in.Data[(a+j)*2*hd : (a+j+1)*2*hd]
				copy(row[:hd], hidden[int(i)*hd:(int(i)+1)*hd])
				cs := bg.ChildrenOf(i)
				childSum := row[hd:]
				copy(childSum, hidden[int(cs[0])*hd:(int(cs[0])+1)*hd])
				for _, ch := range cs[1:] {
					for k, v := range hidden[int(ch)*hd : (int(ch)+1)*hd] {
						childSum[k] += v
					}
				}
			}
			c.run(m.combine, a, a+len(nodes))
			for j, i := range nodes {
				copy(hidden[int(i)*hd:(int(i)+1)*hd], c.out.Data[(a+j)*hd:(a+j+1)*hd])
			}
		}
	}

	r := &slabs[famReadout]
	r.in = *inf.TensorUninit(bg.NumGraphs, hd)
	for g := 0; g < bg.NumGraphs; g++ {
		dst := r.in.Data[g*hd : (g+1)*hd]
		if m.cfg.FlatSum {
			start, end := int(bg.GraphStart[g]), int(bg.GraphStart[g+1])
			copy(dst, hidden[start*hd:(start+1)*hd])
			for i := start + 1; i < end; i++ {
				for k, v := range hidden[i*hd : (i+1)*hd] {
					dst[k] += v
				}
			}
			s := 1 / float64(end-start)
			for k := range dst {
				dst[k] *= s
			}
		} else {
			root := int(bg.Roots[g])
			copy(dst, hidden[root*hd:(root+1)*hd])
		}
	}
	r.h, r.out = *inf.TensorUninit(bg.NumGraphs, hd), *inf.TensorUninit(bg.NumGraphs, m.readout.Layers[1].Out)
	r.run(m.readout, 0, bg.NumGraphs)
}

// runtimeFromLog converts a predicted log-runtime into seconds, clamped
// to a sane runtime band (1 microsecond .. ~3 hours) so a wild
// extrapolation cannot overflow downstream metrics.
func runtimeFromLog(logRT float64) float64 {
	if logRT > 9.2 {
		logRT = 9.2
	}
	if logRT < -13.8 {
		logRT = -13.8
	}
	return math.Exp(logRT)
}
