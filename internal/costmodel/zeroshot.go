package costmodel

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/par"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/schema"
	"github.com/zeroshot-db/zeroshot/internal/zeroshot"
)

func init() {
	Register(NameZeroShot, Factory{
		New: func(opts Options) (Estimator, error) {
			cfg := zeroshot.DefaultConfig()
			opts.overrideNeural(&cfg.Hidden, &cfg.Epochs, &cfg.BatchSize, &cfg.LR, &cfg.Seed)
			cfg.FlatSum = opts.FlatSum
			return &ZeroShot{model: zeroshot.New(cfg), card: opts.Card}, nil
		},
		Load: loadZeroShot,
	})
}

// ZeroShot adapts the paper's zero-shot graph model to the Estimator
// contract. It owns the transferable plan encoding: inputs carry raw
// executed plans, and the adapter encodes them against the input
// database's schema with its configured cardinality source. It keeps no
// per-schema state: an encoder is a few words built on demand, and what
// is worth keeping — the encoded graph, and the answer the model gave
// for it under its current weights — lives in the input's memo.
type ZeroShot struct {
	model *zeroshot.Model
	card  encoding.CardSource
}

// Name implements Estimator.
func (z *ZeroShot) Name() string { return NameZeroShot }

// Card returns the cardinality source the adapter encodes plans with.
func (z *ZeroShot) Card() encoding.CardSource { return z.card }

// Model exposes the underlying graph model for callers that need
// zeroshot-specific surface (e.g. the learned join-ordering example).
func (z *ZeroShot) Model() *zeroshot.Model { return z.model }

// encoder builds the plan encoder for the input's database. Call sites
// that only take its Key or Encode with it keep it on the stack, so a
// memo hit allocates nothing.
func (z *ZeroShot) encoder(in PlanInput) *encoding.PlanEncoder {
	return encoding.NewPlanEncoder(in.DB.Schema, z.card)
}

// keyer hands out the encoder keys of a batch's inputs, taking each
// from encoding's intern table once per run of inputs over one schema:
// a serving batch spans one database, so once per batch.
type keyer struct {
	z   *ZeroShot
	sch *schema.Schema
	key encoding.Key
}

func (k *keyer) of(in PlanInput) encoding.Key {
	if k.sch == nil || in.DB.Schema != k.sch {
		k.sch = in.DB.Schema
		k.key = k.z.encoder(in).Key()
	}
	return k.key
}

// WarmEncode implements EncodeWarmer: encode the input's plan into its
// memo (a no-op when the shape was already encoded under this adapter's
// encoder key).
func (z *ZeroShot) WarmEncode(in PlanInput) error {
	_, err := z.encodeBatch(context.Background(), []PlanInput{in})
	return itemCause(err)
}

// coldKey identifies a distinct shape within one batch: items sharing
// the encoder key and the plan (the serving plan cache hands the same
// *plan.Node and memo to every duplicate) encode exactly once.
type coldKey struct {
	enc  encoding.Key
	plan *plan.Node
}

// coldShape is one distinct plan shape awaiting a cold encode: its
// encoder, the encoder's key and the plan, the batch positions that need
// its graph, and the graph once a worker has built it.
type coldShape struct {
	key   encoding.Key
	enc   *encoding.PlanEncoder
	plan  *plan.Node
	items []int
	graph *encoding.Graph
}

// encodeBatch resolves every input's plan graph (see resolveBatch); it
// takes no answers, which is what training wants.
func (z *ZeroShot) encodeBatch(ctx context.Context, ins []PlanInput) ([]*encoding.Graph, error) {
	graphs, _, err := z.resolveBatch(ctx, ins, 0)
	return graphs, err
}

// resolveBatch resolves every input to its answer under weights version
// or its plan graph: memo hits first — one lock per item returns the
// answer or the graph — then the remaining cold items deduped to
// distinct shapes and encoded over par.Each (so the batch cancellation
// contract — no item starts after cancel, unfinished items report
// ctx.Err() — carries over). An answered item leaves its graph nil and
// its seconds in answers, which stays nil while no item is answered;
// version 0 answers none. Every graph is heap-built and lives as long as
// its holders: the items' memos, a training set, or just this batch.
//
// The warm path (every input memoized) allocates only the result
// slices.
func (z *ZeroShot) resolveBatch(ctx context.Context, ins []PlanInput, version uint64) (graphs []*encoding.Graph, answers []float64, err error) {
	graphs = make([]*encoding.Graph, len(ins))
	var (
		cold   []*coldShape // distinct cold shapes, first-occurrence order
		shapes map[coldKey]*coldShape
		keys   = keyer{z: z}
	)
	for i, in := range ins {
		if err := ctx.Err(); err != nil {
			return nil, nil, &itemError{i, err}
		}
		if in.DB == nil || in.Plan == nil {
			return nil, nil, &itemError{i, errors.New("zeroshot estimator needs DB and Plan inputs")}
		}
		key := keys.of(in)
		g, seconds, answered := in.Enc.resolve(key, version)
		if answered {
			if answers == nil {
				answers = make([]float64, len(ins))
			}
			answers[i] = seconds
			continue
		}
		if g != nil {
			graphs[i] = g
			continue
		}
		k := coldKey{enc: key, plan: in.Plan}
		if shapes == nil {
			shapes = map[coldKey]*coldShape{}
		}
		s, ok := shapes[k]
		if !ok {
			s = &coldShape{key: key, enc: z.encoder(in), plan: in.Plan}
			shapes[k] = s
			cold = append(cold, s)
		}
		s.items = append(s.items, i)
	}
	if len(cold) == 0 {
		return graphs, answers, nil
	}
	errs := par.Each(ctx, len(cold), func(j int) error {
		s := cold[j]
		g, err := s.enc.Encode(s.plan)
		s.graph = g
		return err
	})
	// cold is in first-occurrence order, so the first failing shape's
	// first item is the lowest failing input index — the same item a
	// serial scan would have reported.
	for j, err := range errs {
		if err != nil {
			return nil, nil, &itemError{cold[j].items[0], err}
		}
	}
	for _, s := range cold {
		for _, i := range s.items {
			graphs[i] = s.graph
			ins[i].Enc.store(s.key, s.graph)
		}
	}
	return graphs, answers, nil
}

// Fit implements Estimator. ctx cancellation propagates into the
// training loop itself (checked at epoch and minibatch boundaries), not
// just the encode stage.
func (z *ZeroShot) Fit(ctx context.Context, samples []Sample) (*FitReport, error) {
	return z.train(ctx, samples, func(zs []zeroshot.Sample) (*zeroshot.TrainResult, error) {
		return z.model.Train(ctx, zs)
	})
}

// FineTune implements Tuner: continue training on samples from a new
// database at a reduced learning rate (the paper's few-shot mode). ctx
// cancellation propagates into the training loop, so the adaptation
// worker's background fine-tune stops promptly on drain.
func (z *ZeroShot) FineTune(ctx context.Context, samples []Sample, epochs int, lr float64) (*FitReport, error) {
	return z.train(ctx, samples, func(zs []zeroshot.Sample) (*zeroshot.TrainResult, error) {
		return z.model.FineTune(ctx, zs, epochs, lr)
	})
}

// train is Fit's and FineTune's one body: encode the samples, run the
// model's training call on them, and report what it measured.
func (z *ZeroShot) train(ctx context.Context, samples []Sample, run func([]zeroshot.Sample) (*zeroshot.TrainResult, error)) (*FitReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The memo→dedup→parallel pipeline applies to training sets too:
	// duplicate shapes encode once and cores share the work.
	graphs, err := z.encodeBatch(ctx, Inputs(samples))
	if err != nil {
		return nil, err
	}
	zs := make([]zeroshot.Sample, len(samples))
	for i, s := range samples {
		zs[i] = zeroshot.Sample{Graph: graphs[i], RuntimeSec: s.RuntimeSec}
	}
	res, err := run(zs)
	if err != nil {
		return nil, err
	}
	return &FitReport{Samples: len(zs), EpochLoss: res.EpochLoss,
		WallTime: res.WallTime, SamplesPerSec: res.SamplesPerSec}, nil
}

// Clone implements Tuner: a copy of the weights in a new model, so the
// clone shares no weights with the original and can fine-tune while the
// original keeps serving. The clone keeps the architecture and
// cardinality source and starts as a loaded model does (see
// zeroshot.Model.Clone): default training hyperparameters, which
// FineTune's explicit epochs/lr arguments override, and no optimizer
// history.
func (z *ZeroShot) Clone() Tuner {
	return &ZeroShot{model: z.model.Clone(), card: z.card}
}

// PredictBatch implements Estimator: every item the memo can answer
// under the model's current weights is answered from it, and the rest
// execute as ONE fused forward pass. The encode stage runs the
// cold-path pipeline — memo hits resolve first, remaining cold items
// dedupe to distinct shapes, and the distinct shapes encode in parallel
// (see resolveBatch) — then the misses' graphs are packed into an
// encoding.BatchGraph and run through the model's tape-free batched
// inference, and each miss's memo keeps its answer under the version
// read before the pass (a version the weights have since left is never
// matched again). The result is bitwise identical to predicting each
// input alone: encoding is deterministic per shape, duplicates share
// one graph with identical features, the packed pass is the exact
// per-row operation sequence of a per-graph tape forward, and a memo
// answer is that pass's float for that graph under those weights.
// Inputs may span databases: each is encoded against its own schema, and
// the packed pass never reads schema state.
func (z *ZeroShot) PredictBatch(ctx context.Context, ins []PlanInput) ([]float64, error) {
	if len(ins) == 0 {
		return nil, nil
	}
	version := z.model.Version()
	graphs, out, err := z.resolveBatch(ctx, ins, version)
	if err != nil {
		return nil, err
	}
	misses := graphs
	if out != nil { // some items were answered: pack only the rest
		misses = nil
		for _, g := range graphs {
			if g != nil {
				misses = append(misses, g)
			}
		}
		if misses == nil {
			return out, nil
		}
	}
	preds := z.model.PredictBatch(misses)
	if out == nil {
		out = preds
	}
	j := 0
	keys := keyer{z: z}
	for i, g := range graphs {
		if g == nil {
			continue
		}
		out[i] = preds[j]
		j++
		ins[i].Enc.answer(keys.of(ins[i]), version, out[i])
	}
	return out, nil
}

// zeroShotHeader precedes the model weights in the save payload.
type zeroShotHeader struct {
	Card int
}

// Save implements Estimator.
func (z *ZeroShot) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(zeroShotHeader{Card: int(z.card)}); err != nil {
		return fmt.Errorf("encode zeroshot header: %w", err)
	}
	return z.model.Save(w)
}

func loadZeroShot(r io.Reader) (Estimator, error) {
	var hdr zeroShotHeader
	if err := gob.NewDecoder(r).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("decode zeroshot header: %w", err)
	}
	m, err := zeroshot.Load(r)
	if err != nil {
		return nil, err
	}
	return &ZeroShot{model: m, card: encoding.CardSource(hdr.Card)}, nil
}
