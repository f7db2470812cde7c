package encoding

import (
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/plan"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/stats"
)

// BenchmarkEncodePlan measures graph-encoding latency per plan.
func BenchmarkEncodePlan(b *testing.B) {
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		b.Fatal(err)
	}
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	opt := optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams())
	qs, err := query.Synthetic(db, 20, 3)
	if err != nil {
		b.Fatal(err)
	}
	plans := make([]*plan.Node, 0, len(qs))
	for _, q := range qs {
		p, err := opt.Plan(q)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, p)
	}
	enc := NewPlanEncoder(db.Schema, CardEstimated)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(plans[i%len(plans)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPack measures packing 256 plan graphs into a retained
// BatchGraph — the form PredictBatch runs (its packings are pooled), and
// the one a change to Pack's bookkeeping shows in: a fresh Pack per call
// is dominated by growing 1.6 MB of slabs.
func BenchmarkPack(b *testing.B) {
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		b.Fatal(err)
	}
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	opt := optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams())
	qs, err := query.Synthetic(db, 256, 3)
	if err != nil {
		b.Fatal(err)
	}
	enc := NewPlanEncoder(db.Schema, CardEstimated)
	gs := make([]*Graph, 0, len(qs))
	for _, q := range qs {
		p, err := opt.Plan(q)
		if err != nil {
			b.Fatal(err)
		}
		g, err := enc.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		gs = append(gs, g)
	}
	bg := Pack(gs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bg.Pack(gs)
	}
}
