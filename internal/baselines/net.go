// Package baselines implements the workload-driven comparison models of
// the paper's evaluation:
//
//   - MSCN (Kipf et al., CIDR 2019): a multi-set convolutional network over
//     one-hot table/join/predicate sets — no plan structure.
//   - E2E (Sun & Li, VLDB 2019): a tree-structured network over physical
//     plans with one-hot leaf encodings — end-to-end learning of data and
//     system characteristics in one model.
//   - Scaled Optimizer Cost: a log-linear regression from the optimizer's
//     analytical cost estimate to the runtime.
//
// All three keep the non-transferable featurizations of their originals;
// their need for per-database training data is the paper's motivation.
// MSCN and E2E differ only in their MLPs and forward pass: both are a Net,
// the one harness that trains, predicts, saves and loads them.
package baselines

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/zeroshot-db/zeroshot/internal/nn"
)

// Config holds the hyperparameters of the neural baselines.
type Config struct {
	Hidden    int
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
}

// DefaultConfig returns CPU-sized hyperparameters.
func DefaultConfig() Config {
	return Config{Hidden: 32, Epochs: 24, BatchSize: 16, LR: 3e-3, Seed: 1}
}

// Sample is one training example: a featurized input and its runtime.
type Sample[X any] struct {
	X          X
	RuntimeSec float64
}

// Net is a neural baseline over featurized inputs X: its forward pass,
// its parameters in save order, and the training, prediction and
// serialization every architecture shares.
type Net[X any] struct {
	name    string
	cfg     Config
	rng     *rand.Rand
	params  []*nn.Param
	forward func(*nn.Tape, X) *nn.Var
}

// newNet seeds a network's generator from cfg (the defaults when
// cfg.Hidden is not positive). The architecture draws its MLPs from
// n.rng, in its own fixed order, and hands them to own.
func newNet[X any](name string, cfg Config) *Net[X] {
	if cfg.Hidden <= 0 {
		cfg = DefaultConfig()
	}
	return &Net[X]{name: name, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// own sets the forward pass and collects the MLPs' parameters in save
// order.
func (n *Net[X]) own(forward func(*nn.Tape, X) *nn.Var, mlps ...*nn.MLP) *Net[X] {
	n.forward = forward
	for _, m := range mlps {
		n.params = append(n.params, m.Params()...)
	}
	return n
}

// Params returns all trainable parameters.
func (n *Net[X]) Params() []*nn.Param { return n.params }

// Predict returns the predicted runtime in seconds.
func (n *Net[X]) Predict(x X) float64 {
	tp := nn.NewTape()
	out := n.forward(tp, x)
	return clampExp(out.Val.Data[0])
}

// Train fits the model on log-runtime targets with Huber loss.
func (n *Net[X]) Train(samples []Sample[X]) error {
	if len(samples) == 0 {
		return fmt.Errorf("baselines: %s has no training samples", n.name)
	}
	opt := nn.NewAdam(n.params, n.cfg.LR)
	tp := nn.NewTape() // one tape for the whole run, recycled per sample
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	batch := n.cfg.BatchSize
	if batch <= 0 {
		batch = 16
	}
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		n.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		inBatch := 0
		for _, idx := range order {
			s := samples[idx]
			if s.RuntimeSec <= 0 {
				return fmt.Errorf("baselines: %s sample with runtime %v", n.name, s.RuntimeSec)
			}
			tp.Reset()
			out := n.forward(tp, s.X)
			loss := tp.HuberLoss(out, nn.FromSlice([]float64{math.Log(s.RuntimeSec)}), 1.0)
			tp.Backward(loss)
			inBatch++
			if inBatch == batch {
				opt.Step(float64(inBatch))
				opt.ZeroGrad()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			opt.Step(float64(inBatch))
			opt.ZeroGrad()
		}
	}
	return nil
}

// savedNet is the gob header preceding a network's parameters; the
// architecture is fully determined by the hidden size.
type savedNet struct {
	Hidden int
}

// Save writes the network's width and weights to w.
func (n *Net[X]) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(savedNet{Hidden: n.cfg.Hidden}); err != nil {
		return fmt.Errorf("baselines: encode %s: %w", n.name, err)
	}
	return nn.SaveParams(w, n.params)
}

// Load reads a network saved by Save, built by build (NewMSCN or
// NewE2E) at the width the file declares. Training hyperparameters
// revert to defaults.
func Load[X any](r io.Reader, build func(Config) *Net[X]) (*Net[X], error) {
	// gob wraps readers lacking ReadByte in an internal bufio.Reader that
	// over-reads past its message, corrupting the stream for the next
	// decoder.
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	var hdr savedNet
	if err := gob.NewDecoder(r).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("baselines: decode network header: %w", err)
	}
	if err := nn.CheckWidth(hdr.Hidden); err != nil {
		return nil, err
	}
	cfg := DefaultConfig()
	cfg.Hidden = hdr.Hidden
	n := build(cfg)
	if err := nn.LoadParams(r, n.params); err != nil {
		return nil, err
	}
	return n, nil
}

// clampExp exponentiates a log-runtime with the same clamp band the
// zero-shot model uses.
func clampExp(logRT float64) float64 {
	if logRT > 9.2 {
		logRT = 9.2
	}
	if logRT < -13.8 {
		logRT = -13.8
	}
	return math.Exp(logRT)
}
