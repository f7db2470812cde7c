package costmodel

import (
	"context"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/collect"
)

// BenchmarkPredictBatchCold measures cold-batch throughput (every item
// encodes, nothing memoized) over 256 distinct plans through the one
// cold path PredictBatch runs: memo scan → dedup → par.Each encode →
// pack → fused pass. Run with -cpu 1,2,4 to see the encode fan-out and
// the sharded fused pass scale; -cpu 1 is the serial baseline.
func BenchmarkPredictBatchCold(b *testing.B) {
	zs, f := fitZeroShot(b)
	const batch = 256
	recs, err := collect.Run(f.db, collect.Options{Queries: batch, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	ins := make([]PlanInput, len(recs))
	for i, s := range FromRecords(f.db, recs) {
		ins[i] = s.PlanInput
		ins[i].Enc = nil // keep every iteration fully cold
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zs.PredictBatch(ctx, ins); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ins)*b.N)/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkZeroShotPredict measures one served single prediction, a
// batch of one, with the plan's graph already memoized — what
// adapt.Feedback pays per sample and what the per-item isolation
// fallbacks of serving and what-if pay per item.
func BenchmarkZeroShotPredict(b *testing.B) {
	zs, f := fitZeroShot(b)
	ctx := context.Background()
	ins := make([]PlanInput, len(f.eval))
	for i := range f.eval {
		ins[i] = f.eval[i].PlanInput
		ins[i].Enc = NewEncodedPlan()
		if err := zs.WarmEncode(ins[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ins)
		if _, err := zs.PredictBatch(ctx, ins[j:j+1]); err != nil {
			b.Fatal(err)
		}
	}
}
