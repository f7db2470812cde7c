// Package zeroshot implements the paper's primary contribution: the
// zero-shot cost model — a graph neural network over the transferable
// query-plan encoding that is trained on query executions from many
// databases and predicts runtimes on databases it has never seen.
//
// Architecture (Section 3.1 of the paper):
//
//  1. Node-type-specific encoder MLPs map each graph node's transferable
//     features to a fixed-size initial hidden state.
//  2. A bottom-up message-passing phase over the plan DAG: the hidden
//     states of a node's children are summed (DeepSets) and combined with
//     the node's own hidden state by an MLP.
//  3. The root's hidden state feeds a readout MLP predicting log-runtime.
//
// Because every feature keeps its meaning across databases, the learned
// weights transfer: inference on an unseen database is exactly the same
// forward pass over that database's encoded plans.
package zeroshot

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
	"github.com/zeroshot-db/zeroshot/internal/par"
)

// Config holds model and training hyperparameters.
type Config struct {
	// Hidden is the hidden-state dimension.
	Hidden int
	// Epochs is the number of training passes.
	Epochs int
	// BatchSize is the number of samples per optimizer step.
	BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// Seed drives parameter initialization and shuffling.
	Seed int64
	// HuberDelta is the robust-loss threshold on log-runtime residuals.
	HuberDelta float64
	// FlatSum disables message passing (ablation A2): the prediction uses
	// the sum of all node encodings with no structural combination.
	FlatSum bool
}

// DefaultConfig returns hyperparameters sized for CPU training: small
// enough to train in tens of seconds on a few thousand plans, large enough
// to fit the runtime function.
func DefaultConfig() Config {
	return Config{
		Hidden:     32,
		Epochs:     24,
		BatchSize:  16,
		LR:         3e-3,
		Seed:       1,
		HuberDelta: 1.0,
	}
}

// Sample is one training example: an encoded plan graph and its runtime.
type Sample struct {
	Graph *encoding.Graph
	// RuntimeSec is the (simulated) measured runtime in seconds.
	RuntimeSec float64
}

// Model is the zero-shot cost model.
type Model struct {
	cfg      Config
	encoders [encoding.NumNodeTypes]*nn.MLP
	combine  *nn.MLP
	readout  *nn.MLP
	rng      *rand.Rand

	// order is the epoch permutation buffer, reused across epochs and
	// Train/FineTune calls instead of reallocated per call.
	order []int
	// grads pools the private gradient sets shards accumulate into (so
	// concurrent shards never touch the shared parameter gradients)
	// across shards, minibatches and training runs. Per-model, because a
	// GradSet mirrors this model's parameters — the only part of a
	// training worker's state that does; the rest is in tapePool.
	grads sync.Pool
}

// tapeScratch is the model-independent part of one training worker's
// state: a recycled tape, forward's table of per-node hidden states
// (indexed by GNode.Index) with its child-gathering buffer, and a
// reusable 1x1 target tensor. Nothing in it knows a model until a shard
// binds the tape to a GradSet (RemapGrads), so one warm set serves any
// model of any shape.
type tapeScratch struct {
	tape   *nn.Tape
	hidden []*nn.Var
	kids   []*nn.Var
	target *nn.Tensor
}

// tapePool outlives every model, deliberately: the adaptation loop
// fine-tunes a fresh Clone each cycle, and a per-model pool made every
// cycle grow eight cold tapes (slab, Var and Tensor structs, op log) and
// throw them away — +25 % peak RSS on the few-shot workload. Here a
// cycle's clone trains on the previous cycle's warm tapes. A set is
// released (see release) before it is pooled, so an idle one references
// no model, gradient set or plan graph — only its own buffers.
var tapePool = sync.Pool{New: func() any {
	return &tapeScratch{tape: nn.NewTape(), target: nn.NewTensor(1, 1)}
}}

// release drops everything the set references beyond its own buffers —
// the tape's op log, Vars and gradient binding, the hidden-state table's
// Var pointers — and returns it to the pool.
func (ts *tapeScratch) release() {
	ts.tape.Reset()
	ts.tape.RemapGrads(nil)
	clear(ts.hidden[:cap(ts.hidden)])
	clear(ts.kids[:cap(ts.kids)])
	tapePool.Put(ts)
}

// New creates a randomly initialized model.
func New(cfg Config) *Model {
	if cfg.Hidden <= 0 {
		cfg = DefaultConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg, rng: rng}
	for t := 0; t < encoding.NumNodeTypes; t++ {
		in := encoding.FeatDim(encoding.NodeType(t))
		m.encoders[t] = nn.NewMLP(rng, in, cfg.Hidden, cfg.Hidden)
	}
	m.combine = nn.NewMLP(rng, 2*cfg.Hidden, cfg.Hidden, cfg.Hidden)
	m.readout = nn.NewMLP(rng, cfg.Hidden, cfg.Hidden, 1)
	m.grads.New = func() any { return nn.NewGradSet(m.Params()) }
	return m
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Params returns all trainable parameters in a stable order.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	for _, e := range m.encoders {
		ps = append(ps, e.Params()...)
	}
	ps = append(ps, m.combine.Params()...)
	ps = append(ps, m.readout.Params()...)
	return ps
}

// forward runs the graph network on ts's tape and returns the predicted
// log-runtime as a 1x1 Var. Hidden states live in ts.hidden, indexed by
// GNode.Index through Graph.Position — the lookup BatchGraph.Pack uses —
// so a graph whose nodes are unindexed or out of topological order
// panics here as it does there.
func (m *Model) forward(ts *tapeScratch, g *encoding.Graph) *nn.Var {
	tp := ts.tape
	hidden := slices.Grow(ts.hidden[:0], len(g.Nodes))[:len(g.Nodes)]
	ts.hidden = hidden
	for i, n := range g.Nodes {
		h := m.encoders[n.Type].Apply(tp, tp.ConstRow(n.Feat))
		if !m.cfg.FlatSum && len(n.Children) > 0 {
			ts.kids = ts.kids[:0]
			for _, c := range n.Children {
				ci, ok := g.Position(c, i)
				if !ok {
					panic(fmt.Sprintf("zeroshot: graph %p: a child of node %d is not an earlier node of the graph (unindexed, or not in topological order)", g, i))
				}
				ts.kids = append(ts.kids, hidden[ci])
			}
			h = m.combine.Apply(tp, tp.Concat(h, tp.Sum(ts.kids...)))
		}
		hidden[i] = h
	}
	var root *nn.Var
	if m.cfg.FlatSum {
		root = tp.ScaleVar(tp.Sum(hidden...), 1/float64(len(hidden)))
	} else {
		ri, ok := g.Position(g.Root, len(g.Nodes))
		if !ok {
			panic(fmt.Sprintf("zeroshot: graph %p: root missing from Nodes", g))
		}
		root = hidden[ri]
	}
	return m.readout.Apply(tp, root)
}

// Predict returns the predicted runtime in seconds for an encoded plan
// by building a tape and running forward on it: the path training
// takes, kept for inference as the reference the fused PredictBatch is
// pinned bitwise-equal to. Nothing serves through it — every caller
// that wants a prediction, one plan or many, calls PredictBatch, which
// computes the same bits without a tape.
func (m *Model) Predict(g *encoding.Graph) float64 {
	ts := &tapeScratch{tape: nn.NewTape()}
	out := m.forward(ts, g)
	return runtimeFromLog(out.Val.Data[0])
}

// TrainResult reports the per-epoch mean training loss and the
// end-to-end training throughput.
type TrainResult struct {
	EpochLoss []float64
	// WallTime is the wall-clock duration of the whole training run
	// (validation through the last optimizer step).
	WallTime time.Duration
	// SamplesPerSec is the end-to-end throughput: samples x epochs
	// divided by WallTime.
	SamplesPerSec float64
}

// Train fits the model on the samples (runtime targets in log space,
// Huber loss, Adam with minibatch accumulation). It returns the loss
// trajectory. Training is deterministic for a fixed Config.Seed,
// bitwise independent of the worker count (see train).
func (m *Model) Train(samples []Sample) (*TrainResult, error) {
	return m.TrainCtx(context.Background(), samples)
}

// TrainCtx is Train with cancellation: ctx is checked at epoch and
// minibatch boundaries, so a canceled training run stops promptly
// instead of finishing every remaining epoch.
func (m *Model) TrainCtx(ctx context.Context, samples []Sample) (*TrainResult, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("zeroshot: no training samples")
	}
	return m.train(ctx, samples, m.cfg.Epochs, m.cfg.LR)
}

// FineTune continues training on samples from a new database — the paper's
// few-shot mode. A reduced learning rate preserves the pretrained system
// knowledge while adapting to the target.
func (m *Model) FineTune(samples []Sample, epochs int, lr float64) (*TrainResult, error) {
	return m.FineTuneCtx(context.Background(), samples, epochs, lr)
}

// FineTuneCtx is FineTune with cancellation, checked at epoch and
// minibatch boundaries — the adaptation loop's background fine-tune
// runs under the serve process lifetime and must stop on drain.
func (m *Model) FineTuneCtx(ctx context.Context, samples []Sample, epochs int, lr float64) (*TrainResult, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("zeroshot: no fine-tuning samples")
	}
	if epochs <= 0 {
		epochs = 8
	}
	if lr <= 0 {
		lr = m.cfg.LR / 4
	}
	return m.train(ctx, samples, epochs, lr)
}

// maxGradShards fixes how many gradient-reduction shards a minibatch
// splits into. The shard layout is a function of the minibatch length
// ONLY — never of the worker count — so the fixed-order reduce yields
// bitwise identical weights for any GOMAXPROCS value: workers
// only decide which goroutine computes which shard, not what any shard
// computes or the order shards reduce in. Eight shards bound both the
// parallel fan-out per optimizer step and the number of private
// gradient sets alive at once.
const maxGradShards = 8

// shardBounds returns the s-th of `shards` balanced contiguous ranges
// covering [0, n).
func shardBounds(n, shards, s int) (lo, hi int) {
	q, r := n/shards, n%shards
	lo = s * q
	if s < r {
		lo += s
	} else {
		lo += r
	}
	hi = lo + q
	if s < r {
		hi++
	}
	return lo, hi
}

// train is the data-parallel training engine. Each epoch shuffles the
// reused order buffer, then walks it in minibatches; each minibatch
// splits into up to maxGradShards contiguous shards that run
// forward+backward concurrently on the par worker pool, every shard
// accumulating into a private gradient set from the model's pool over
// a warm tape from the shared one. Shard gradients and losses then
// reduce into the optimizer's shared tensors in ascending shard order.
// The result — weights and EpochLoss — is bitwise identical for any
// worker count, and the serial path is the same code with the shard
// loop run inline.
func (m *Model) train(ctx context.Context, samples []Sample, epochs int, lr float64) (*TrainResult, error) {
	for i, s := range samples {
		if s.Graph == nil || s.Graph.Root == nil {
			return nil, fmt.Errorf("zeroshot: sample %d has no graph", i)
		}
		if s.RuntimeSec <= 0 || math.IsNaN(s.RuntimeSec) || math.IsInf(s.RuntimeSec, 0) {
			return nil, fmt.Errorf("zeroshot: sample %d has invalid runtime %v", i, s.RuntimeSec)
		}
	}
	start := time.Now()
	params := m.Params()
	opt := nn.NewAdam(params, lr)
	if cap(m.order) < len(samples) {
		m.order = make([]int, len(samples))
	}
	order := m.order[:len(samples)]
	for i := range order {
		order[i] = i
	}
	res := &TrainResult{}
	batch := m.cfg.BatchSize
	if batch <= 0 {
		batch = 16
	}
	var (
		shardGrads [maxGradShards]*nn.GradSet
		shardLoss  [maxGradShards]float64
	)
	for epoch := 0; epoch < epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("zeroshot: training aborted after %d epochs: %w", epoch, err)
		}
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for base := 0; base < len(order); base += batch {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("zeroshot: training aborted mid-epoch: %w", err)
			}
			end := base + batch
			if end > len(order) {
				end = len(order)
			}
			mb := order[base:end]
			shards := len(mb)
			if shards > maxGradShards {
				shards = maxGradShards
			}
			par.Blocks(shards, 1, func(slo, shi int) {
				ts := tapePool.Get().(*tapeScratch)
				for s := slo; s < shi; s++ {
					gs := m.grads.Get().(*nn.GradSet)
					gs.Zero()
					ts.tape.RemapGrads(gs.Remap())
					lo, hi := shardBounds(len(mb), shards, s)
					loss := 0.0
					for _, idx := range mb[lo:hi] {
						loss += m.trainStep(ts, samples[idx])
					}
					shardLoss[s] = loss
					shardGrads[s] = gs
				}
				ts.release()
			})
			// Deterministic reduce: shard gradients and losses fold into
			// the shared tensors in ascending shard order, whatever order
			// the workers finished in.
			for s := 0; s < shards; s++ {
				gs := shardGrads[s]
				shardGrads[s] = nil
				gs.AddTo(params)
				epochLoss += shardLoss[s]
				m.grads.Put(gs)
			}
			opt.Step(float64(len(mb)))
			opt.ZeroGrad()
		}
		res.EpochLoss = append(res.EpochLoss, epochLoss/float64(len(samples)))
	}
	res.WallTime = time.Since(start)
	if secs := res.WallTime.Seconds(); secs > 0 {
		res.SamplesPerSec = float64(len(samples)*epochs) / secs
	}
	return res, nil
}

// trainStep runs one sample's forward+backward on the worker's warm
// tape, accumulating into the gradient set the tape is bound to, and
// returns the sample loss. Once the tape has seen a plan this large it
// allocates nothing.
func (m *Model) trainStep(ts *tapeScratch, s Sample) float64 {
	ts.tape.Reset()
	out := m.forward(ts, s.Graph)
	ts.target.Data[0] = math.Log(s.RuntimeSec)
	loss := ts.tape.HuberLoss(out, ts.target, m.cfg.HuberDelta)
	ts.tape.Backward(loss)
	return loss.Val.Data[0]
}

// savedModel is the gob header preceding the parameters.
type savedModel struct {
	Hidden  int
	FlatSum bool
}

// Save writes the model architecture and weights to w.
func (m *Model) Save(w io.Writer) error {
	hdr := savedModel{Hidden: m.cfg.Hidden, FlatSum: m.cfg.FlatSum}
	if err := encodeGob(w, hdr); err != nil {
		return err
	}
	return nn.SaveParams(w, m.Params())
}

// Load reads a model saved by Save. Training hyperparameters of cfg are
// kept; architecture fields must match the saved model.
func Load(r io.Reader, cfg Config) (*Model, error) {
	// The header and the parameters are read by separate gob decoders; a
	// reader without ReadByte would be re-wrapped by gob and over-read, so
	// share one ByteReader across both.
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	var hdr savedModel
	if err := decodeGob(r, &hdr); err != nil {
		return nil, err
	}
	if cfg.Hidden == 0 {
		cfg = DefaultConfig()
	}
	cfg.Hidden = hdr.Hidden
	cfg.FlatSum = hdr.FlatSum
	m := New(cfg)
	if err := nn.LoadParams(r, m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}
