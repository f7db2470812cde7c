// Package costmodel defines the one estimator contract every runtime
// predictor of this repository is served through — the paper's "one model
// to rule them all" claim, turned into an API.
//
// Before this package, the zero-shot model and the three workload-driven
// baselines each invented their own sample type, train/predict signatures
// and save/load story, and every experiment hand-wired all four. Now a
// single interface covers them:
//
//   - Estimator: Fit on []Sample, PredictBatch on []PlanInput (the one
//     inference call: a single input is a batch of one), Save to an
//     io.Writer.
//   - The zero-shot adapter fuses a batch into one forward pass: it
//     packs the whole batch into one super-graph and runs a single
//     tape-free pass (Fused reports it). The rest (MSCN, E2E,
//     ScaledCost) predict the items one after another. Either way each
//     item's result is bitwise-equal to a batch of one of that input.
//   - A registry keyed by model name makes saved models self-describing:
//     Load reads the header and reconstructs the right estimator without
//     the caller re-supplying a Config.
//   - Adapters own their featurization (transferable graph, MSCN sets,
//     E2E tree, optimizer cost), so callers deal only in PlanInput —
//     an executed-or-planned query with its database context.
//
// Inference is goroutine-safe on every adapter: after Fit (or Load),
// PredictBatch may be called from any number of goroutines
// concurrently. Fit and FineTune mutate the estimator and must not run
// concurrently with inference.
package costmodel

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/par"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// PlanInput is one featurizable prediction request: a query against a
// database, with its physical plan and the optimizer's cost estimate.
// Which parts an estimator reads is its own business — the zero-shot model
// encodes Plan against DB's schema, MSCN featurizes Query, E2E featurizes
// Plan with DB's one-hot vocabulary, and ScaledCost reads OptimizerCost.
type PlanInput struct {
	// DB is the database the query runs on; adapters derive (and cache)
	// schema statistics and vocabularies from it.
	DB *storage.Database
	// Query is the logical query (required by MSCN).
	Query *query.Query
	// Plan is the physical plan. Estimators trained with exact
	// cardinalities need an executed plan (TrueRows filled); estimators
	// trained with estimated cardinalities work on optimizer output alone.
	Plan *plan.Node
	// OptimizerCost is the analytical total cost estimate (required by
	// ScaledCost).
	OptimizerCost float64
	// Enc optionally memoizes this plan's graph encodings per encoder.
	// Callers that retain inputs (the serving plan cache) attach one so
	// repeated predictions of the same shape skip re-encoding; nil
	// disables memoization. The pointer is shared by every value copy of
	// the PlanInput, so a hit anywhere warms all holders.
	Enc *EncodedPlan
}

// Sample is one training example: a PlanInput and its measured runtime.
type Sample struct {
	PlanInput
	RuntimeSec float64
}

// FromRecords converts a collected record slice into Samples.
func FromRecords(db *storage.Database, recs []collect.Record) []Sample {
	out := make([]Sample, len(recs))
	for i, r := range recs {
		out[i] = Sample{
			PlanInput: PlanInput{
				DB:            db,
				Query:         r.Query,
				Plan:          r.Plan,
				OptimizerCost: r.OptimizerCost,
			},
			RuntimeSec: r.RuntimeSec,
		}
	}
	return out
}

// Inputs strips the runtime targets off a sample slice.
func Inputs(samples []Sample) []PlanInput {
	out := make([]PlanInput, len(samples))
	for i, s := range samples {
		out[i] = s.PlanInput
	}
	return out
}

// FitReport summarizes a completed Fit.
type FitReport struct {
	// Samples is the number of training examples consumed.
	Samples int
	// EpochLoss is the per-epoch mean training loss for iterative
	// estimators (nil for closed-form fits such as ScaledCost).
	EpochLoss []float64
	// WallTime is the wall-clock duration of the training run, when the
	// estimator reports it (zero otherwise).
	WallTime time.Duration
	// SamplesPerSec is the end-to-end training throughput (samples x
	// epochs / WallTime), when the estimator reports it.
	SamplesPerSec float64
}

// Estimator is the one contract every runtime predictor implements.
type Estimator interface {
	// Name returns the registry name the estimator was registered under.
	Name() string
	// Fit trains the estimator on the samples. Fit must not run
	// concurrently with inference.
	Fit(ctx context.Context, samples []Sample) (*FitReport, error)
	// PredictBatch returns the predicted runtimes in seconds of many
	// inputs as one batch — a single fused forward pass for the
	// zero-shot adapter (see Fused), a serial loop otherwise. Results
	// align with the input slice, and each is bitwise-equal to a batch
	// of one of its input. The lowest failing input aborts the batch
	// with an error naming its index.
	// Safe for concurrent use after Fit or Load.
	PredictBatch(ctx context.Context, ins []PlanInput) ([]float64, error)
	// Save writes the estimator's payload to w. Use the package-level
	// Save to produce a self-describing file that Load can reconstruct.
	Save(w io.Writer) error
}

// Tuner is the optional capability of estimators that can adapt to a new
// database — the paper's few-shot mode — while they keep serving.
// FineTune continues training on samples from the new database. Clone
// makes a deep, independently trainable copy: a copy of the weights in
// a new model, which trains as a loaded copy of the saved model would.
// The online adaptation subsystem depends on both: Fit and FineTune
// must not run concurrently with inference, so background fine-tuning
// clones the serving generation, trains the clone, and hot-swaps it in
// — the attached estimator is never mutated while it predicts.
type Tuner interface {
	Estimator
	FineTune(ctx context.Context, samples []Sample, epochs int, lr float64) (*FitReport, error)
	Clone() Tuner
}

// itemError is a batch's abort: the lowest failing input index and that
// input's own error, which a batch of one returns unchanged through
// itemCause.
type itemError struct {
	index int
	err   error
}

func (e *itemError) Error() string {
	return fmt.Sprintf("costmodel: batch item %d: %v", e.index, e.err)
}

func (e *itemError) Unwrap() error { return e.err }

// itemCause strips a batch's item wrapper off err.
func itemCause(err error) error {
	if ie, ok := err.(*itemError); ok {
		return ie.err
	}
	return err
}

// predictSerial is the PredictBatch of the adapters whose models cannot
// fuse a batch (MSCN, E2E, ScaledCost): the adapter's per-item predict,
// one after another. A cancellation stops the batch at the next item;
// the first failing index aborts it and is named.
func predictSerial(ctx context.Context, ins []PlanInput, predict func(PlanInput) (float64, error)) ([]float64, error) {
	if len(ins) == 0 {
		return nil, nil
	}
	out := make([]float64, len(ins))
	for i, in := range ins {
		err := ctx.Err()
		if err == nil {
			out[i], err = predict(in)
		}
		if err != nil {
			return nil, &itemError{i, err}
		}
	}
	return out, nil
}

// PredictEach gives every input its own outcome, aligned with ins (errs
// is nil when all predicted). It calls PredictBatch once; only if that
// aborts (its first bad input fails the batch) does it re-predict each
// input as a batch of one over par.Each, and isolated says so. Both
// routes give the same bits, by the contract; an input's error is its
// own, without the batch's item wrapper, and an input not started when
// ctx ended reports ctx.Err().
func PredictEach(ctx context.Context, est Estimator, ins []PlanInput) (preds []float64, errs []error, isolated bool) {
	preds, err := est.PredictBatch(ctx, ins)
	if err == nil {
		return preds, nil, false
	}
	preds, errs = predictAlone(ctx, est, ins)
	return preds, errs, true
}

// predictAlone is PredictEach's fallback, in a function of its own: a
// closure over PredictEach's named results would heap them on every call.
func predictAlone(ctx context.Context, est Estimator, ins []PlanInput) ([]float64, []error) {
	preds := make([]float64, len(ins))
	errs := par.Each(ctx, len(ins), func(i int) error {
		p, err := est.PredictBatch(ctx, ins[i:i+1])
		if err == nil {
			preds[i] = p[0]
		}
		return itemCause(err)
	})
	return preds, errs
}

// Fused reports whether est's PredictBatch runs as one fused forward
// pass (shared buffers, no per-item tape) rather than predicting the
// items one by one. Only the zero-shot adapter does.
func Fused(est Estimator) bool {
	_, ok := est.(*ZeroShot)
	return ok
}

// EncodeWarmer is the optional capability of estimators that can
// pre-populate a PlanInput's encoded-graph memo ahead of inference.
// The serving pipeline uses it when a request is trace-sampled: warming
// the memo under an explicit "encode" span attributes graph encoding
// separately from the forward pass without changing what the later
// prediction computes — the memo guarantees the graph is built exactly
// once either way.
type EncodeWarmer interface {
	WarmEncode(in PlanInput) error
}

// Options sizes a fresh estimator from the registry. Each adapter reads
// the fields it understands and ignores the rest; zero values select the
// adapter's defaults.
type Options struct {
	// Hidden, Epochs, BatchSize, LR and Seed are the shared neural
	// hyperparameters (zeroshot, mscn, e2e).
	Hidden    int
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	// Card selects the cardinality annotation of the transferable graph
	// encoding (zeroshot).
	Card encoding.CardSource
	// FlatSum disables message passing — ablation A2 (zeroshot).
	FlatSum bool
}

// overrideNeural applies the shared neural hyperparameters onto an
// adapter's default config fields; zero values keep the defaults.
func (o Options) overrideNeural(hidden, epochs, batchSize *int, lr *float64, seed *int64) {
	if o.Hidden > 0 {
		*hidden = o.Hidden
	}
	if o.Epochs > 0 {
		*epochs = o.Epochs
	}
	if o.BatchSize > 0 {
		*batchSize = o.BatchSize
	}
	if o.LR > 0 {
		*lr = o.LR
	}
	if o.Seed != 0 {
		*seed = o.Seed
	}
}
