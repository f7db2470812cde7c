package whatif

import (
	"context"
	"sync"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

var (
	swOnce sync.Once
	swDB   *storage.Database
	swEst  costmodel.Estimator
	swQs   []*query.Query
	swErr  error
)

// benchSetup trains a small real zero-shot model (estimated
// cardinalities, the serving configuration) on its own database — the
// fused-vs-fanout comparison is only meaningful against the real graph
// model's forward pass.
func benchSetup(b *testing.B) (*storage.Database, costmodel.Estimator, []*query.Query) {
	b.Helper()
	swOnce.Do(func() {
		swDB, swErr = datagen.IMDBLike(0.05)
		if swErr != nil {
			return
		}
		recs, err := collect.Run(swDB, collect.Options{Queries: 48, Seed: 41})
		if err != nil {
			swErr = err
			return
		}
		est, err := costmodel.New(costmodel.NameZeroShot,
			costmodel.Options{Hidden: 12, Epochs: 2, Card: encoding.CardEstimated})
		if err != nil {
			swErr = err
			return
		}
		if _, err := est.Fit(context.Background(), costmodel.FromRecords(swDB, recs)); err != nil {
			swErr = err
			return
		}
		swEst = est
		swQs, swErr = query.Synthetic(swDB, 32, 99)
	})
	if swErr != nil {
		b.Fatal(swErr)
	}
	return swDB, swEst, swQs
}

// fanoutEst defeats batch fusion: PredictBatch degrades to a loop of
// batches of one (one tape-free forward pass per plan instead of one per
// batch). Wrapping the estimator deliberately hides its *ZeroShot type
// from costmodel.Fused.
type fanoutEst struct {
	costmodel.Estimator
}

func (f fanoutEst) PredictBatch(ctx context.Context, ins []costmodel.PlanInput) ([]float64, error) {
	out := make([]float64, len(ins))
	for i := range ins {
		v, err := f.Estimator.PredictBatch(ctx, ins[i:i+1])
		if err != nil {
			return nil, err
		}
		out[i] = v[0]
	}
	return out, nil
}

// batchLenEst records the length of its last PredictBatch call: a
// sweep's one fused batch holds exactly its distinct plans.
type batchLenEst struct {
	costmodel.Estimator
	n int
}

func (e *batchLenEst) PredictBatch(ctx context.Context, ins []costmodel.PlanInput) ([]float64, error) {
	e.n = len(ins)
	return e.Estimator.PredictBatch(ctx, ins)
}

// BenchmarkWhatIfSweep prices one advise-sized sweep — 32 statements ×
// (7 candidates + baseline) = 256 pairs — through the real zero-shot
// model, fused (one batched forward pass) versus fanned out (per-item
// passes). Each iteration plans, encodes and prices the sweep's
// distinct plans: a sweep keeps none once its report is built.
func BenchmarkWhatIfSweep(b *testing.B) {
	db, est, qs := benchSetup(b)
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	cands, err := Enumerate(db.Schema, qs, nil, 7)
	if err != nil {
		b.Fatal(err)
	}
	variants := make([]Variant, len(cands))
	for i, c := range cands {
		variants[i] = Variant{Name: c.Index, Indexes: []string{c.Index}}
	}
	stmts := Statements(qs)
	items := (len(variants) + 1) * len(stmts)

	run := func(b *testing.B, est costmodel.Estimator) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Sweep(context.Background(), db, st, est, stmts, variants); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
	}
	b.Run("fused", func(b *testing.B) { run(b, est) })
	b.Run("fanout", func(b *testing.B) { run(b, fanoutEst{est}) })
}

// BenchmarkSweepCold prices one bench-shaped sweep — 16 generated
// statements × (up to 16 enumerated candidates + baseline) — so
// planning, encoding and pricing are all paid. ns/item is per (variant,
// statement) pair; distinct/item is the share of pairs that needed a
// plan of their own, read from the fused batch's length.
func BenchmarkSweepCold(b *testing.B) {
	db, est, _ := benchSetup(b)
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	qs, err := query.NewGenerator(db, query.DefaultGenConfig(), 301).Generate(16)
	if err != nil {
		b.Fatal(err)
	}
	cands, err := Enumerate(db.Schema, qs, nil, 16)
	if err != nil {
		b.Fatal(err)
	}
	variants := make([]Variant, len(cands))
	for i, c := range cands {
		variants[i] = Variant{Name: c.Index, Indexes: []string{c.Index}}
	}
	stmts := Statements(qs)
	items := (len(variants) + 1) * len(stmts)
	rec := &batchLenEst{Estimator: est}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), db, st, rec, stmts, variants); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
	b.ReportMetric(float64(rec.n)/float64(items), "distinct/item")
}
