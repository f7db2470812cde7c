package zeroshot

import (
	"context"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

func benchSamples(b *testing.B, n int) []Sample {
	b.Helper()
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := collect.Run(db, collect.Options{Queries: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	enc := encoding.NewPlanEncoder(db.Schema, encoding.CardExact)
	samples := make([]Sample, 0, len(recs))
	for _, r := range recs {
		g, err := enc.Encode(r.Plan)
		if err != nil {
			b.Fatal(err)
		}
		samples = append(samples, Sample{Graph: g, RuntimeSec: r.RuntimeSec})
	}
	return samples
}

// BenchmarkPredict measures single-plan inference latency — the number
// that matters if the model sits inside an optimizer loop (Section 4.2).
func BenchmarkPredict(b *testing.B) {
	samples := benchSamples(b, 20)
	m := New(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch([]*encoding.Graph{samples[i%len(samples)].Graph})
	}
}

// BenchmarkTrainEpoch measures one training pass over 100 plans.
func BenchmarkTrainEpoch(b *testing.B) {
	samples := benchSamples(b, 100)
	cfg := DefaultConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(cfg)
		if _, err := m.Train(context.Background(), samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFineTune measures the adaptation-loop workload — a few
// epochs of fine-tuning over a drift window. Run with -cpu 1,2,4 to
// compare widths: every width trains to bitwise-identical weights
// (pinned by TestTrainBitwiseIdenticalAcrossWorkerCounts), so the
// comparison is pure wall-time and allocation cost. E14 in
// EXPERIMENTS.md records the numbers.
func BenchmarkFineTune(b *testing.B) {
	samples := benchSamples(b, 100)
	base := New(DefaultConfig())
	if _, err := base.Train(context.Background(), samples[:50]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := base.Clone()
		b.StartTimer()
		if _, err := m.FineTune(context.Background(), samples[50:], 3, 0); err != nil {
			b.Fatal(err)
		}
	}
}
