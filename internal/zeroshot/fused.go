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
// calling Predict per graph — every packed row goes through the same
// per-row tensor operations the tape path runs, whatever the shard
// split — while doing near-zero allocations at steady state. Safe for
// concurrent use. This is the inference path for one plan as for many;
// the tape is for training, and for Predict as the reference.
func (m *Model) PredictBatch(gs []*encoding.Graph) []float64 {
	out := make([]float64, len(gs))
	if len(gs) == 0 {
		return out
	}
	par.Blocks(len(gs), shardGrain, func(lo, hi int) {
		bg := packPool.Get().(*encoding.BatchGraph)
		bg.Pack(gs[lo:hi])
		inf := nn.GetInference()
		pred := m.fusedForward(inf, bg)
		for g, v := range pred.Data[:hi-lo] {
			out[lo+g] = runtimeFromLog(v)
		}
		inf.Release()
		packPool.Put(bg)
	})
	return out
}

// fusedForward runs the graph network over a packed batch. Stages
// mirror forward exactly:
//
//  1. encoders — one fused pass per node type over its feature slab,
//     scattered to per-node hidden rows;
//  2. combine — one fused pass per topological level: each level-k
//     node's input row is [h0 | sum of child hidden states] (children
//     sit at lower levels, so their rows are final);
//  3. readout — one fused pass over the gathered root rows (or, in
//     FlatSum mode, each graph's mean node hidden state).
func (m *Model) fusedForward(inf *nn.Inference, bg *encoding.BatchGraph) *nn.Tensor {
	hd := m.cfg.Hidden
	// Every row of the staging tensors is fully overwritten before being
	// read, so none of them needs the zeroing memclr.
	hidden := inf.TensorUninit(bg.NumNodes, hd)
	var enc [encoding.NumNodeTypes]*nn.Tensor
	for t := 0; t < encoding.NumNodeTypes; t++ {
		if n := bg.TypeCount[t]; n > 0 {
			x := nn.Wrap(n, encoding.FeatDim(encoding.NodeType(t)), bg.Feats[t])
			enc[t] = m.encoders[t].Infer(inf, x)
		}
	}
	for i := 0; i < bg.NumNodes; i++ {
		r := int(bg.TypeRow[i])
		src := enc[bg.Types[i]]
		copy(hidden.Data[i*hd:(i+1)*hd], src.Data[r*hd:(r+1)*hd])
	}

	if !m.cfg.FlatSum {
		for lvl := 1; lvl <= bg.NumLevels(); lvl++ {
			nodes := bg.Level(lvl)
			in := inf.TensorUninit(len(nodes), 2*hd)
			for j, i := range nodes {
				row := in.Data[j*2*hd : (j+1)*2*hd]
				copy(row[:hd], hidden.Data[int(i)*hd:(int(i)+1)*hd])
				cs := bg.ChildrenOf(i)
				childSum := row[hd:]
				copy(childSum, hidden.Data[int(cs[0])*hd:(int(cs[0])+1)*hd])
				for _, c := range cs[1:] {
					for k, v := range hidden.Data[int(c)*hd : (int(c)+1)*hd] {
						childSum[k] += v
					}
				}
			}
			combined := m.combine.Infer(inf, in)
			for j, i := range nodes {
				copy(hidden.Data[int(i)*hd:(int(i)+1)*hd], combined.Data[j*hd:(j+1)*hd])
			}
		}
	}

	roots := inf.TensorUninit(bg.NumGraphs, hd)
	for g := 0; g < bg.NumGraphs; g++ {
		dst := roots.Data[g*hd : (g+1)*hd]
		if m.cfg.FlatSum {
			start, end := int(bg.GraphStart[g]), int(bg.GraphStart[g+1])
			copy(dst, hidden.Data[start*hd:(start+1)*hd])
			for i := start + 1; i < end; i++ {
				for k, v := range hidden.Data[i*hd : (i+1)*hd] {
					dst[k] += v
				}
			}
			s := 1 / float64(end-start)
			for k := range dst {
				dst[k] *= s
			}
		} else {
			r := int(bg.Roots[g])
			copy(dst, hidden.Data[r*hd:(r+1)*hd])
		}
	}
	return m.readout.Infer(inf, roots)
}

// runtimeFromLog converts a predicted log-runtime into seconds, clamped
// to a sane runtime band (1 microsecond .. ~3 hours) so a wild
// extrapolation cannot overflow downstream metrics. Shared by the tape
// and fused inference paths so both clamp identically.
func runtimeFromLog(logRT float64) float64 {
	if logRT > 9.2 {
		logRT = 9.2
	}
	if logRT < -13.8 {
		logRT = -13.8
	}
	return math.Exp(logRT)
}
