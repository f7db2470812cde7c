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
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/nn"
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
	// FlatSum disables message passing (ablation A2): the prediction uses
	// the sum of all node encodings with no structural combination.
	FlatSum bool
}

// DefaultConfig returns hyperparameters sized for CPU training: small
// enough to train in tens of seconds on a few thousand plans, large enough
// to fit the runtime function.
func DefaultConfig() Config {
	return Config{
		Hidden:    32,
		Epochs:    24,
		BatchSize: 16,
		LR:        3e-3,
		Seed:      1,
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

	// version identifies the current weights (see Version).
	version atomic.Uint64
}

// versions issues weights versions process-wide, starting at 1: 0 is
// never a model's version, so a holder can use it for "none".
var versions atomic.Uint64

// renew gives the model a version no model has had before.
func (m *Model) renew() { m.version.Store(versions.Add(1)) }

// Version identifies the model's current weights: two reads that return
// the same version saw the same weights, so a prediction made under one
// version may be replayed while the model still reports it. A model gets
// a fresh version from New and Load (so every clone and every loaded
// bundle has its own), at the end of every training run — finished,
// failed or cancelled — and whenever Params hands the weights out.
// Read-only paths (Save, prediction) leave it alone.
func (m *Model) Version() uint64 { return m.version.Load() }

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
	m.renew()
	return m
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Params returns all trainable parameters in a stable order. The caller
// may write through them, so the model takes a fresh version (see
// Version): predictions made before the call are not replayed after it.
// The version moves at the call, not at the write, so finish writing
// before predicting again; writing while other goroutines predict is a
// data race, as it always was.
func (m *Model) Params() []*nn.Param {
	m.renew()
	return m.params()
}

// params is Params for the package's own readers and writers, which
// manage the version themselves.
func (m *Model) params() []*nn.Param {
	var ps []*nn.Param
	for _, e := range m.encoders {
		ps = append(ps, e.Params()...)
	}
	ps = append(ps, m.combine.Params()...)
	ps = append(ps, m.readout.Params()...)
	return ps
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
// bitwise independent of the worker count (see train). ctx is checked
// at epoch and minibatch boundaries, so a canceled training run stops
// promptly instead of finishing every remaining epoch.
func (m *Model) Train(ctx context.Context, samples []Sample) (*TrainResult, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("zeroshot: no training samples")
	}
	return m.train(ctx, samples, m.cfg.Epochs, m.cfg.LR)
}

// FineTune continues training on samples from a new database — the paper's
// few-shot mode. A reduced learning rate preserves the pretrained system
// knowledge while adapting to the target. ctx is checked as in Train:
// the adaptation loop's background fine-tune runs under the serve
// process lifetime and must stop on drain.
func (m *Model) FineTune(ctx context.Context, samples []Sample, epochs int, lr float64) (*TrainResult, error) {
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

// maxGradShards fixes how many shards a minibatch's gradient sums are
// grouped into: each parameter element sums a shard's terms onto +0 and
// adds that partial to its gradient, shard by shard (see train.go). It
// is the summation grouping only, not the parallelism — that comes from
// GOMAXPROCS through par, across graph parts and gradient jobs — and it
// stays 8 because the trained weights' bits depend on it: the per-sample
// trainer ran one shard per worker and reduced them in this order.
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

// train is the training engine. Each epoch shuffles the reused order
// buffer, then walks it in minibatches; each minibatch is one packed
// step (trainScratch.step, train.go) — forward, backward and the
// parameter gradients summed in a fixed order — then one Adam update.
// The result, weights and EpochLoss, is bitwise identical for any
// worker count. Whatever the outcome, the model leaves with a fresh
// version: a run that stops early has still moved the weights.
func (m *Model) train(ctx context.Context, samples []Sample, epochs int, lr float64) (*TrainResult, error) {
	defer m.renew()
	for i, s := range samples {
		if s.Graph == nil || s.Graph.NumNodes() == 0 {
			return nil, fmt.Errorf("zeroshot: sample %d has no graph", i)
		}
		if s.RuntimeSec <= 0 || math.IsNaN(s.RuntimeSec) || math.IsInf(s.RuntimeSec, 0) {
			return nil, fmt.Errorf("zeroshot: sample %d has invalid runtime %v", i, s.RuntimeSec)
		}
	}
	start := time.Now()
	opt := nn.NewAdam(m.params(), lr)
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
	st := getTrainScratch()
	defer st.release()
	st.bind(m, samples)
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
			mb := order[base:min(base+batch, len(order))]
			epochLoss = st.step(mb, epochLoss)
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

// savedModel is the gob header preceding the parameters.
type savedModel struct {
	Hidden  int
	FlatSum bool
}

// Save writes the model architecture and weights to w.
func (m *Model) Save(w io.Writer) error {
	hdr := savedModel{Hidden: m.cfg.Hidden, FlatSum: m.cfg.FlatSum}
	if err := gob.NewEncoder(w).Encode(hdr); err != nil {
		return fmt.Errorf("zeroshot: encode: %w", err)
	}
	return nn.SaveParams(w, m.params())
}

// archConfig is the configuration of a model built from existing
// weights: their architecture, with default training hyperparameters.
func archConfig(hidden int, flatSum bool) Config {
	cfg := DefaultConfig()
	cfg.Hidden, cfg.FlatSum = hidden, flatSum
	return cfg
}

// Load reads a model saved by Save, with default training
// hyperparameters. The initialisation New draws is overwritten, but it
// leaves the generator where the first fine-tune's shuffles expect it.
func Load(r io.Reader) (*Model, error) {
	// The header and the parameters are read by separate gob decoders; a
	// reader without ReadByte would be re-wrapped by gob and over-read, so
	// share one ByteReader across both.
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	var hdr savedModel
	if err := gob.NewDecoder(r).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("zeroshot: decode: %w", err)
	}
	if err := nn.CheckWidth(hdr.Hidden); err != nil {
		return nil, err
	}
	m := New(archConfig(hdr.Hidden, hdr.FlatSum))
	if err := nn.LoadParams(r, m.params()); err != nil {
		return nil, err
	}
	return m, nil
}

// Clone returns a model with a copy of m's weights, built as Load builds
// one: training hyperparameters are the defaults, the generator is where
// initialisation leaves it, and no optimizer history comes along.
func (m *Model) Clone() *Model {
	c := New(archConfig(m.cfg.Hidden, m.cfg.FlatSum))
	dst := c.params()
	for i, p := range m.params() {
		copy(dst[i].Val.Data, p.Val.Data)
	}
	return c
}
