package baselines

import (
	"context"
	"math"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// imdbRecords collects records plus featurizers for the IMDB-like db.
func imdbRecords(t *testing.T, n int, seed int64) ([]collect.Record, *storage.Database, *encoding.Vocab, *stats.DBStats) {
	t.Helper()
	db, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := collect.Run(db, collect.Options{Queries: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	return recs, db, encoding.NewVocab(db.Schema), st
}

func TestMSCNTrainsAndPredictsInDistribution(t *testing.T) {
	recs, db, vocab, st := imdbRecords(t, 260, 1)
	f := encoding.NewMSCNFeaturizer(vocab, st)
	train, test := recs[:200], recs[200:]
	var samples []Sample[*encoding.MSCNFeatures]
	for _, r := range train {
		samples = append(samples, Sample[*encoding.MSCNFeatures]{X: f.Featurize(r.Query), RuntimeSec: r.RuntimeSec})
	}
	cfg := DefaultConfig()
	cfg.Epochs = 16
	m := NewMSCN(cfg)
	if err := m.Train(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(test))
	actuals := make([]float64, len(test))
	for i, r := range test {
		preds[i] = m.Predict(f.Featurize(r.Query))
		actuals[i] = r.RuntimeSec
	}
	sum, err := metrics.Summarize(preds, actuals)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MSCN in-distribution: %v", sum)
	if sum.Median > 6 {
		t.Fatalf("MSCN median q-error %.2f way too high in-distribution", sum.Median)
	}
	_ = db
}

func TestE2ETrainsAndPredictsInDistribution(t *testing.T) {
	recs, _, vocab, st := imdbRecords(t, 260, 2)
	f := encoding.NewE2EFeaturizer(vocab, st)
	train, test := recs[:200], recs[200:]
	var samples []Sample[*encoding.E2ENode]
	for _, r := range train {
		samples = append(samples, Sample[*encoding.E2ENode]{X: f.Featurize(r.Plan), RuntimeSec: r.RuntimeSec})
	}
	cfg := DefaultConfig()
	cfg.Epochs = 16
	m := NewE2E(cfg)
	if err := m.Train(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(test))
	actuals := make([]float64, len(test))
	for i, r := range test {
		preds[i] = m.Predict(f.Featurize(r.Plan))
		actuals[i] = r.RuntimeSec
	}
	sum, err := metrics.Summarize(preds, actuals)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E2E in-distribution: %v", sum)
	if sum.Median > 4 {
		t.Fatalf("E2E median q-error %.2f too high in-distribution", sum.Median)
	}
}

// TestMSCNDoesNotTransfer demonstrates the paper's motivation: a model
// trained on one database is useless on another.
func TestMSCNDoesNotTransfer(t *testing.T) {
	// Train on SSB.
	ssb, err := datagen.SSBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	ssbRecs, err := collect.Run(ssb, collect.Options{Queries: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ssbStats := stats.Collect(ssb, stats.DefaultBuckets, stats.DefaultMCVs)
	ssbVocab := encoding.NewVocab(ssb.Schema)
	fTrain := encoding.NewMSCNFeaturizer(ssbVocab, ssbStats)
	var samples []Sample[*encoding.MSCNFeatures]
	for _, r := range ssbRecs {
		samples = append(samples, Sample[*encoding.MSCNFeatures]{X: fTrain.Featurize(r.Query), RuntimeSec: r.RuntimeSec})
	}
	cfg := DefaultConfig()
	cfg.Epochs = 16
	m := NewMSCN(cfg)
	if err := m.Train(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	// In-distribution check on held-out SSB queries.
	holdout, err := collect.Run(ssb, collect.Options{Queries: 50, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	var inPreds, inActs []float64
	for _, r := range holdout {
		inPreds = append(inPreds, m.Predict(fTrain.Featurize(r.Query)))
		inActs = append(inActs, r.RuntimeSec)
	}
	inSum, _ := metrics.Summarize(inPreds, inActs)

	// Apply mechanically to IMDB (the transfer the paper shows fails):
	// same model, the unseen database's own vocabulary positions.
	imdbRecs, imdb, imdbVocab, imdbStats := imdbRecords(t, 50, 4)
	fCross := encoding.NewMSCNFeaturizer(imdbVocab, imdbStats)
	var crossPreds, crossActs []float64
	for _, r := range imdbRecs {
		crossPreds = append(crossPreds, m.Predict(fCross.Featurize(r.Query)))
		crossActs = append(crossActs, r.RuntimeSec)
	}
	crossSum, _ := metrics.Summarize(crossPreds, crossActs)
	t.Logf("MSCN in-distribution: %v; transferred: %v", inSum, crossSum)
	if crossSum.Median < inSum.Median {
		t.Fatalf("one-hot model transferred better than in-distribution (%.2f < %.2f) — transferability failure not reproduced",
			crossSum.Median, inSum.Median)
	}
	_ = imdb
}

func TestScaledCostFitRecoversPowerLaw(t *testing.T) {
	// runtime = 0.002 * cost^0.8 exactly.
	costs := []float64{10, 100, 1000, 10000, 1e5}
	runtimes := make([]float64, len(costs))
	for i, c := range costs {
		runtimes[i] = 0.002 * math.Pow(c, 0.8)
	}
	var s ScaledCost
	if err := s.Fit(costs, runtimes); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.A-0.8) > 1e-9 {
		t.Fatalf("A = %v, want 0.8", s.A)
	}
	for i, c := range costs {
		if q := metrics.QError(s.Predict(c), runtimes[i]); q > 1.0001 {
			t.Fatalf("q-error %v on exact power law", q)
		}
	}
}

func TestScaledCostDegenerateInput(t *testing.T) {
	var s ScaledCost
	if err := s.Fit([]float64{5, 5, 5}, []float64{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	// Constant-cost fallback predicts the geometric mean.
	if p := s.Predict(5); math.Abs(p-2) > 1e-9 {
		t.Fatalf("degenerate fit predicts %v, want 2", p)
	}
}

func TestScaledCostRejectsBadInput(t *testing.T) {
	var s ScaledCost
	if err := s.Fit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("accepted single sample")
	}
	if err := s.Fit([]float64{1, -1}, []float64{1, 1}); err == nil {
		t.Fatal("accepted negative cost")
	}
	if err := s.Fit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("accepted length mismatch")
	}
}

func TestScaledCostOnRealRecords(t *testing.T) {
	recs, _, _, _ := imdbRecords(t, 150, 5)
	costs := make([]float64, len(recs))
	rts := make([]float64, len(recs))
	for i, r := range recs {
		costs[i] = r.OptimizerCost
		rts[i] = r.RuntimeSec
	}
	var s ScaledCost
	if err := s.Fit(costs[:100], rts[:100]); err != nil {
		t.Fatal(err)
	}
	var preds, actuals []float64
	for i := 100; i < len(recs); i++ {
		preds = append(preds, s.Predict(costs[i]))
		actuals = append(actuals, rts[i])
	}
	sum, _ := metrics.Summarize(preds, actuals)
	t.Logf("scaled optimizer cost: %v", sum)
	if sum.Median > 10 {
		t.Fatalf("scaled cost median q-error %.2f absurdly high", sum.Median)
	}
}

func TestMSCNRejectsEmptyAndBad(t *testing.T) {
	m := NewMSCN(DefaultConfig())
	if err := m.Train(context.Background(), nil); err == nil {
		t.Fatal("accepted empty training set")
	}
	bad := []Sample[*encoding.MSCNFeatures]{{X: &encoding.MSCNFeatures{}, RuntimeSec: -1}}
	if err := m.Train(context.Background(), bad); err == nil {
		t.Fatal("accepted negative runtime")
	}
}

func TestE2ERejectsEmptyAndBad(t *testing.T) {
	m := NewE2E(DefaultConfig())
	if err := m.Train(context.Background(), nil); err == nil {
		t.Fatal("accepted empty training set")
	}
}

func TestMSCNEmptySetsHandled(t *testing.T) {
	// Single-table query without filters: joins and predicates are empty.
	m := NewMSCN(DefaultConfig())
	f := &encoding.MSCNFeatures{Tables: [][]float64{make([]float64, encoding.MaxVocabTables)}}
	p := m.Predict(f)
	if p <= 0 || math.IsNaN(p) {
		t.Fatalf("prediction %v for empty sets", p)
	}
}
