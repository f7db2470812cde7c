package zeroshot

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/nn"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// gatherSamples collects records from a database and encodes them.
func gatherSamples(t *testing.T, db *storage.Database, n int, seed int64, card encoding.CardSource) []Sample {
	t.Helper()
	recs, err := collect.Run(db, collect.Options{Queries: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	enc := encoding.NewPlanEncoder(db.Schema, card)
	samples := make([]Sample, 0, len(recs))
	for _, r := range recs {
		g, err := enc.Encode(r.Plan)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, Sample{Graph: g, RuntimeSec: r.RuntimeSec})
	}
	return samples
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Hidden = 24
	cfg.Epochs = 14
	return cfg
}

// TestZeroShotGeneralizesToUnseenDatabase is the headline property: train
// on synthetic databases, predict on the never-seen IMDB-like database,
// and beat a constant predictor by a wide margin.
func TestZeroShotGeneralizesToUnseenDatabase(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.MaxRows = 20000
	trainDBs, err := datagen.TrainingCorpus(4, 11, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var train []Sample
	for i, db := range trainDBs {
		train = append(train, gatherSamples(t, db, 120, int64(100+i), encoding.CardExact)...)
	}
	m := New(smallConfig())
	res, err := m.Train(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1]
	if last >= first {
		t.Fatalf("training loss did not decrease: %v -> %v", first, last)
	}

	imdb, err := datagen.IMDBLike(0.02)
	if err != nil {
		t.Fatal(err)
	}
	test := gatherSamples(t, imdb, 60, 999, encoding.CardExact)
	preds := make([]float64, len(test))
	actuals := make([]float64, len(test))
	meanLog := 0.0
	for i, s := range test {
		preds[i] = m.PredictBatch([]*encoding.Graph{s.Graph})[0]
		actuals[i] = s.RuntimeSec
		meanLog += math.Log(s.RuntimeSec)
	}
	meanLog /= float64(len(test))
	sum, err := metrics.Summarize(preds, actuals)
	if err != nil {
		t.Fatal(err)
	}
	// Constant predictor (geometric mean runtime) baseline.
	constPred := make([]float64, len(test))
	for i := range constPred {
		constPred[i] = math.Exp(meanLog)
	}
	constSum, _ := metrics.Summarize(constPred, actuals)
	t.Logf("zero-shot on unseen db: %v; constant baseline: %v", sum, constSum)
	if sum.Median >= constSum.Median {
		t.Fatalf("zero-shot median q-error %.2f no better than constant %.2f", sum.Median, constSum.Median)
	}
	if sum.Median > 3.0 {
		t.Fatalf("zero-shot median q-error %.2f too high for an in-family unseen db", sum.Median)
	}
}

func TestTrainRejectsBadSamples(t *testing.T) {
	m := New(smallConfig())
	if _, err := m.Train(context.Background(), nil); err == nil {
		t.Fatal("accepted empty training set")
	}
	if _, err := m.Train(context.Background(), []Sample{{Graph: nil, RuntimeSec: 1}}); err == nil {
		t.Fatal("accepted nil graph")
	}
	db, _ := datagen.IMDBLike(0.02)
	s := gatherSamples(t, db, 1, 1, encoding.CardEstimated)
	s[0].RuntimeSec = -1
	if _, err := m.Train(context.Background(), s); err == nil {
		t.Fatal("accepted negative runtime")
	}
}

func TestPredictDeterministic(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	s := gatherSamples(t, db, 5, 2, encoding.CardEstimated)
	m := New(smallConfig())
	for _, smp := range s {
		if m.PredictBatch([]*encoding.Graph{smp.Graph})[0] != m.PredictBatch([]*encoding.Graph{smp.Graph})[0] {
			t.Fatal("prediction not deterministic")
		}
	}
}

func TestPredictBounded(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	s := gatherSamples(t, db, 5, 3, encoding.CardEstimated)
	m := New(smallConfig())
	for _, smp := range s {
		p := m.PredictBatch([]*encoding.Graph{smp.Graph})[0]
		if p <= 0 || math.IsInf(p, 0) || math.IsNaN(p) {
			t.Fatalf("prediction %v out of bounds", p)
		}
	}
}

func TestFineTuneImprovesOnTarget(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.MaxRows = 15000
	trainDBs, err := datagen.TrainingCorpus(2, 31, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var train []Sample
	for i, db := range trainDBs {
		train = append(train, gatherSamples(t, db, 80, int64(300+i), encoding.CardExact)...)
	}
	m := New(smallConfig())
	if _, err := m.Train(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	imdb, _ := datagen.IMDBLike(0.02)
	target := gatherSamples(t, imdb, 80, 555, encoding.CardExact)
	ftSamples, test := target[:40], target[40:]

	evalMedian := func() float64 {
		preds := make([]float64, len(test))
		actuals := make([]float64, len(test))
		for i, s := range test {
			preds[i] = m.PredictBatch([]*encoding.Graph{s.Graph})[0]
			actuals[i] = s.RuntimeSec
		}
		sum, _ := metrics.Summarize(preds, actuals)
		return sum.Median
	}
	before := evalMedian()
	if _, err := m.FineTune(context.Background(), ftSamples, 10, 0); err != nil {
		t.Fatal(err)
	}
	after := evalMedian()
	t.Logf("few-shot: median q-error %v -> %v", before, after)
	if after > before*1.5 {
		t.Fatalf("fine-tuning made the model much worse: %v -> %v", before, after)
	}
}

func TestFineTuneRejectsEmpty(t *testing.T) {
	m := New(smallConfig())
	if _, err := m.FineTune(context.Background(), nil, 5, 0.001); err == nil {
		t.Fatal("accepted empty fine-tuning set")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	samples := gatherSamples(t, db, 20, 4, encoding.CardEstimated)
	m := New(smallConfig())
	if _, err := m.Train(context.Background(), samples[:10]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		a, b := m.PredictBatch([]*encoding.Graph{s.Graph})[0], loaded.PredictBatch([]*encoding.Graph{s.Graph})[0]
		if a != b {
			t.Fatalf("loaded model predicts %v, original %v", b, a)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("loaded garbage")
	}
}

// TestLoadRejectsHostileWidth feeds Load a bare header declaring a width
// no model has: it must refuse it before sizing a network from it
// (1<<31 would ask for far more memory than exists).
func TestLoadRejectsHostileWidth(t *testing.T) {
	for _, hidden := range []int{0, -1, nn.MaxWidth + 1, 1 << 31} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(savedModel{Hidden: hidden}); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if err == nil || !strings.Contains(err.Error(), "width") {
			t.Fatalf("header Hidden=%d loaded with err %v, want a width error", hidden, err)
		}
	}
}

func TestFlatSumModelTrains(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	samples := gatherSamples(t, db, 60, 6, encoding.CardExact)
	cfg := smallConfig()
	cfg.FlatSum = true
	cfg.Epochs = 6
	m := New(cfg)
	res, err := m.Train(context.Background(), samples)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochLoss[len(res.EpochLoss)-1] >= res.EpochLoss[0] {
		t.Fatal("flat-sum model loss did not decrease")
	}
}

func TestTrainingDeterministicForSeed(t *testing.T) {
	db, _ := datagen.IMDBLike(0.02)
	samples := gatherSamples(t, db, 30, 8, encoding.CardExact)
	cfg := smallConfig()
	cfg.Epochs = 3
	m1, m2 := New(cfg), New(cfg)
	if _, err := m1.Train(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Train(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	if m1.PredictBatch([]*encoding.Graph{samples[0].Graph})[0] != m2.PredictBatch([]*encoding.Graph{samples[0].Graph})[0] {
		t.Fatal("training not deterministic for equal seeds")
	}
}
