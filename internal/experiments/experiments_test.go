package experiments

import (
	"strings"
	"sync"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/baselines"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/zeroshot"
)

// tinyConfig keeps every experiment test in CPU-seconds while preserving
// the paper's qualitative shapes (calibrated against larger probe runs).
func tinyConfig() Config {
	model := zeroshot.DefaultConfig()
	model.Hidden = 24
	model.Epochs = 12
	base := baselines.DefaultConfig()
	base.Epochs = 12
	dg := datagen.DefaultConfig()
	dg.MaxRows = 15000
	return Config{
		TrainDBs:      4,
		QueriesPerDB:  100,
		EvalQueries:   50,
		BaselineSizes: []int{50, 200, 500},
		Seed:          2,
		IMDBScale:     0.08,
		Model:         model,
		Baselines:     base,
		DatagenCfg:    dg,
	}
}

// sharedEnv prepares one environment reused by all tests in this package.
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func sharedEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = Prepare(tinyConfig())
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestPrepareBuildsCompleteEnv(t *testing.T) {
	env := sharedEnv(t)
	if len(env.TrainDBs) != env.Cfg.TrainDBs || len(env.TrainRecords) != env.Cfg.TrainDBs || len(env.IndexTrainRecords) != env.Cfg.TrainDBs {
		t.Fatalf("train corpus incomplete: %d dbs, %d record sets, %d index sets",
			len(env.TrainDBs), len(env.TrainRecords), len(env.IndexTrainRecords))
	}
	for _, recs := range env.TrainRecords {
		if len(recs) != env.Cfg.QueriesPerDB {
			t.Fatalf("record set has %d records, want %d", len(recs), env.Cfg.QueriesPerDB)
		}
	}
	for _, w := range append(append([]string{}, EvalWorkloads...), WorkloadIndex) {
		if len(env.EvalRecords[w]) != env.Cfg.EvalQueries {
			t.Fatalf("workload %s has %d records, want %d", w, len(env.EvalRecords[w]), env.Cfg.EvalQueries)
		}
	}
	// The evaluation database is never a training database.
	for _, db := range env.TrainDBs {
		if db.Schema.Name == env.EvalDB.Schema.Name {
			t.Fatal("evaluation database appears in training corpus")
		}
	}
}

// TestNewEstimatorCoversRegistry checks the experiments layer can size
// every registered estimator from its config — the guarantee that lets
// Figure3 and the ablations iterate over registry names instead of
// hand-wiring model types.
func TestNewEstimatorCoversRegistry(t *testing.T) {
	env := &Env{Cfg: tinyConfig()}
	for _, name := range costmodel.Names() {
		est, err := env.NewEstimator(name, encoding.CardExact)
		if err != nil {
			t.Fatalf("NewEstimator(%q): %v", name, err)
		}
		if est.Name() != name {
			t.Fatalf("NewEstimator(%q).Name() = %q", name, est.Name())
		}
	}
	if _, err := env.NewEstimator("no-such-estimator", encoding.CardExact); err == nil {
		t.Fatal("NewEstimator accepted an unknown name")
	}
	for _, name := range BaselineEstimators {
		found := false
		for _, reg := range costmodel.Names() {
			if name == reg {
				found = true
			}
		}
		if !found {
			t.Fatalf("BaselineEstimators names %q, not in registry %v", name, costmodel.Names())
		}
	}
}

func TestPrepareRejectsBadConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.TrainDBs = 0
	if _, err := Prepare(cfg); err == nil {
		t.Fatal("accepted zero training databases")
	}
}

func TestFigure3ShapesHold(t *testing.T) {
	env := sharedEnv(t)
	res, err := Figure3(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range EvalWorkloads {
		curve := res.Curves[w]
		if len(curve) != len(env.Cfg.BaselineSizes) {
			t.Fatalf("%s: %d points, want %d", w, len(curve), len(env.Cfg.BaselineSizes))
		}
		for _, p := range curve {
			if len(p.Median) != len(BaselineEstimators) {
				t.Fatalf("%s point at n=%d has %d estimators, want %d",
					w, p.TrainQueries, len(p.Median), len(BaselineEstimators))
			}
			for name, v := range p.Median {
				if v < 1 {
					t.Fatalf("%s %s q-error %v < 1", w, name, v)
				}
			}
		}
		if res.ZeroShotExact[w] < 1 || res.ZeroShotEst[w] < 1 {
			t.Fatalf("%s zero-shot q-errors below 1", w)
		}
		// Core paper shapes. Zero-shot (exact) — which needed no queries on
		// the evaluation database — is at least competitive with MSCN and
		// the scaled optimizer cost at every training size...
		zs := res.ZeroShotExact[w]
		for _, p := range curve {
			if zs > p.Median[costmodel.NameMSCN]*1.1 {
				t.Errorf("%s: zero-shot exact %.2f clearly worse than MSCN %.2f at n=%d",
					w, zs, p.Median[costmodel.NameMSCN], p.TrainQueries)
			}
			if zs > p.Median[costmodel.NameScaledCost]*1.1 {
				t.Errorf("%s: zero-shot exact %.2f clearly worse than scaled cost %.2f at n=%d",
					w, zs, p.Median[costmodel.NameScaledCost], p.TrainQueries)
			}
		}
		// ...and strictly better than every workload-driven model at the
		// smallest training budget (the regime the paper motivates).
		small := curve[0]
		if zs > small.Median[costmodel.NameMSCN] || zs > small.Median[costmodel.NameE2E]*1.05 {
			t.Errorf("%s: zero-shot exact %.2f not ahead at n=%d (MSCN %.2f, E2E %.2f)",
				w, zs, small.TrainQueries, small.Median[costmodel.NameMSCN], small.Median[costmodel.NameE2E])
		}
	}
	// Collection time grows with training-set size.
	prev := -1.0
	for _, n := range env.Cfg.BaselineSizes {
		h := res.CollectionHours[n]
		if h <= prev {
			t.Fatalf("collection hours not increasing: %v then %v", prev, h)
		}
		prev = h
	}
	out := res.Render()
	for _, want := range []string{"scale", "synthetic", "job-light", "zero-shot", "collection time"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q", want)
		}
	}
}

func TestTable1ShapesHold(t *testing.T) {
	env := sharedEnv(t)
	res, err := Table1(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(res.Rows))
	}
	if res.Rows[3].Workload != WorkloadIndex {
		t.Fatalf("last row is %s, want index", res.Rows[3].Workload)
	}
	maxOtherMedian := 0.0
	for _, row := range res.Rows {
		for _, s := range []float64{row.Exact.Median, row.Exact.P95, row.Exact.Max, row.Est.Median, row.Est.P95, row.Est.Max} {
			if s < 1 {
				t.Fatalf("row %s has q-error %v < 1", row.Workload, s)
			}
		}
		if row.Exact.Median > row.Exact.P95 || row.Exact.P95 > row.Exact.Max {
			t.Fatalf("row %s summary not ordered", row.Workload)
		}
		if row.Workload != WorkloadIndex {
			// Paper shape (Table 1): exact cardinalities tighten the tail
			// relative to estimated cardinalities.
			if row.Exact.P95 > row.Est.P95*1.05 {
				t.Errorf("row %s: exact p95 %.2f worse than estimated p95 %.2f",
					row.Workload, row.Exact.P95, row.Est.P95)
			}
			if row.Exact.Median > maxOtherMedian {
				maxOtherMedian = row.Exact.Median
			}
		}
	}
	// Paper shape: the what-if index row has clearly larger errors than the
	// plain cost-estimation rows.
	idx := res.Rows[3]
	if idx.Exact.Median < maxOtherMedian*0.9 {
		t.Errorf("index row median %.2f not elevated vs plain rows (max %.2f)",
			idx.Exact.Median, maxOtherMedian)
	}
	out := res.Render()
	if !strings.Contains(out, "index") || !strings.Contains(out, "Zero-Shot") {
		t.Errorf("Render() = %q", out)
	}
}

func TestDBCountSweep(t *testing.T) {
	env := sharedEnv(t)
	res, err := DBCountSweep(env, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Median < 1 {
			t.Fatalf("median %v < 1", p.Median)
		}
	}
	if res.Points[0].TrainDBs != 1 || res.Points[1].TrainDBs != 4 {
		t.Fatalf("points out of order: %+v", res.Points)
	}
	// Section 3.2 shape: more training databases do not hurt holdout error.
	if res.Points[1].Median > res.Points[0].Median*1.1 {
		t.Errorf("more databases made the model clearly worse: %.2f -> %.2f",
			res.Points[0].Median, res.Points[1].Median)
	}
	if _, err := DBCountSweep(env, []int{99}); err == nil {
		t.Fatal("accepted count beyond corpus")
	}
	if !strings.Contains(res.Render(), "databases") {
		t.Error("Render() missing label")
	}
}

func TestFewShot(t *testing.T) {
	env := sharedEnv(t)
	res, err := FewShot(env, []int{10, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	if res.ZeroShotBaseline < 1 {
		t.Fatal("baseline q-error < 1")
	}
	// Core claim: with few queries, few-shot beats from-scratch.
	p := res.Points[0]
	if p.FewShot > p.FromScratch*1.05 {
		t.Errorf("few-shot %.2f worse than from-scratch %.2f at k=%d (claim E6 violated)",
			p.FewShot, p.FromScratch, p.TargetQueries)
	}
	if !strings.Contains(res.Render(), "few-shot") {
		t.Error("Render() missing label")
	}
}

// TestOnlineAdaptation streams an unseen database's workload through a
// Session with feedback: every chunk must produce a curve point, every
// full chunk must attempt an adaptation, and accepted swaps must be
// visible as generation bumps.
func TestOnlineAdaptation(t *testing.T) {
	env := sharedEnv(t)
	res, err := OnlineAdaptation(env, 60, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d points for 60 queries at chunk 20", len(res.Points))
	}
	for i, p := range res.Points {
		if p.Median < 1 {
			t.Fatalf("point %d median q-error %v < 1", i, p.Median)
		}
		if p.Generation < 1 {
			t.Fatalf("point %d generation %d", i, p.Generation)
		}
	}
	// Every full chunk triggers a fine-tune; each either swaps or is
	// rejected by the shadow eval.
	if got := res.SwapsAccepted + res.SwapsRejected; got != 3 {
		t.Fatalf("swap attempts = %d (accepted %d rejected %d), want 3",
			got, res.SwapsAccepted, res.SwapsRejected)
	}
	last := res.Points[len(res.Points)-1]
	if want := res.SwapsAccepted + 1; last.Generation != want {
		t.Fatalf("final generation %d, want %d (1 + %d accepted swaps)",
			last.Generation, want, res.SwapsAccepted)
	}
	if !strings.Contains(res.Render(), "online adaptation") {
		t.Error("Render() missing label")
	}
	// Bad stream sizing is rejected.
	if _, err := OnlineAdaptation(env, 10, 20); err == nil {
		t.Fatal("stream shorter than one chunk accepted")
	}
}

// TestWhatIfAdvisor runs E10 at test scale: the sweep must price the
// whole cross product in one batch-shaped pass, the ranking must be
// verifiable against executed ground truth, and the report must carry
// the throughput and agreement numbers EXPERIMENTS.md records.
func TestWhatIfAdvisor(t *testing.T) {
	env := sharedEnv(t)
	res, err := WhatIfAdvisor(env, 24)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != 24 || res.Candidates == 0 {
		t.Fatalf("sweep sized %d statements x %d candidates", res.Workload, res.Candidates)
	}
	if want := (res.Candidates + 1) * res.Workload; res.Items != want {
		t.Fatalf("Items = %d, want %d", res.Items, want)
	}
	if len(res.Variants) != res.Candidates {
		t.Fatalf("%d outcomes for %d candidates", len(res.Variants), res.Candidates)
	}
	if res.NsPerItem <= 0 {
		t.Fatalf("ns/item = %v", res.NsPerItem)
	}
	if res.Baseline.PredictedSec <= 0 || res.Baseline.ActualSec <= 0 {
		t.Fatalf("baseline = %+v", res.Baseline)
	}
	for i, o := range res.Variants {
		if o.PredictedSec <= 0 || o.ActualSec <= 0 {
			t.Fatalf("outcome %d = %+v", i, o)
		}
		if i > 0 && res.Variants[i-1].PredictedSec > o.PredictedSec {
			t.Fatal("outcomes not in predicted ranking order")
		}
	}
	if res.RankCorr < -1 || res.RankCorr > 1 {
		t.Fatalf("rank correlation %v out of range", res.RankCorr)
	}
	if res.Recommendation != "" && res.Recommendation != res.Variants[0].Name {
		t.Fatalf("recommendation %q is not the top-ranked variant %q", res.Recommendation, res.Variants[0].Name)
	}
	if !strings.Contains(res.Render(), "what-if advisor") {
		t.Error("Render() missing label")
	}
}

func TestAblations(t *testing.T) {
	env := sharedEnv(t)
	res, err := Ablations(env)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]metrics.Summary{
		"zeroshot": res.ZeroShot, "onehot": res.OneHot,
		"flatsum": res.FlatSum, "estcard": res.EstCard, "nocard": res.NoCard,
	} {
		if v.Median < 1 || v.P95 < v.Median || v.Max < v.P95 {
			t.Fatalf("%s summary malformed: %+v", name, v)
		}
	}
	// A1: the transferable encoding must beat one-hot on the unseen DB.
	if res.ZeroShot.Median > res.OneHot.Median {
		t.Errorf("zero-shot %.2f worse than one-hot %.2f on unseen db (A1 shape violated)",
			res.ZeroShot.Median, res.OneHot.Median)
	}
	// A3: cardinalities help (at least in the median).
	if res.ZeroShot.Median > res.NoCard.Median {
		t.Errorf("full model %.2f worse than no-card %.2f (A3 shape violated)",
			res.ZeroShot.Median, res.NoCard.Median)
	}
	if !strings.Contains(res.Render(), "ablations") {
		t.Error("Render() missing label")
	}
}
