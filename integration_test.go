package zeroshotdb_test

import (
	"bytes"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/engine"
	"github.com/zeroshot-db/zeroshot/internal/hwsim"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/sqlparse"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/zeroshot"
)

// TestEndToEndPipeline drives the whole system through its public surface:
// generate databases, collect executed workloads, train a zero-shot model,
// save/load it, parse a SQL query on a never-seen database, plan it (with
// a hypothetical index), execute it, and compare the model's zero-shot
// prediction with the simulated runtime.
func TestEndToEndPipeline(t *testing.T) {
	// 1. Train across two synthetic databases.
	cfg := datagen.DefaultConfig()
	cfg.MaxRows = 10000
	corpus, err := datagen.TrainingCorpus(2, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var samples []zeroshot.Sample
	for i, db := range corpus {
		recs, err := collect.Run(db, collect.Options{Queries: 80, Seed: int64(10 + i)})
		if err != nil {
			t.Fatal(err)
		}
		enc := encoding.NewPlanEncoder(db.Schema, encoding.CardEstimated)
		for _, r := range recs {
			g, err := enc.Encode(r.Plan)
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, zeroshot.Sample{Graph: g, RuntimeSec: r.RuntimeSec})
		}
	}
	mcfg := zeroshot.DefaultConfig()
	mcfg.Hidden = 16
	mcfg.Epochs = 8
	model := zeroshot.New(mcfg)
	if _, err := model.Train(samples); err != nil {
		t.Fatal(err)
	}

	// 2. Round-trip the model through serialization.
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	model, err = zeroshot.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// 3. SQL on the unseen database, planned under a hypothetical index.
	imdb, err := datagen.IMDBLike(0.03)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sqlparse.Parse(`SELECT MIN(title.production_year) FROM movie_companies, title
		WHERE title.id = movie_companies.movie_id AND title.production_year > 100
		AND movie_companies.company_type_id = 2`, imdb.Schema)
	if err != nil {
		t.Fatal(err)
	}
	st := stats.Collect(imdb, stats.DefaultBuckets, stats.DefaultMCVs)
	idx := optimizer.IndexSet{optimizer.Key("title", "production_year"): true}
	opt := optimizer.New(imdb.Schema, st, idx, optimizer.DefaultCostParams())
	p, err := opt.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.New(imdb, engine.Config{}).Execute(p); err != nil {
		t.Fatal(err)
	}
	actual := hwsim.New(hwsim.DefaultProfile(), 1).RuntimeNoiseless(p)

	enc := encoding.NewPlanEncoder(imdb.Schema, encoding.CardEstimated)
	g, err := enc.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	pred := model.Predict(g)
	if pred <= 0 {
		t.Fatalf("prediction %v", pred)
	}
	q2 := metrics.QError(pred, actual)
	t.Logf("end-to-end: predicted %.3fs, simulated %.3fs, q-error %.2f", pred, actual, q2)
	// A tiny model on a never-seen database with a what-if index: demand
	// only a sane order of magnitude.
	if q2 > 30 {
		t.Fatalf("end-to-end q-error %.2f out of bounds", q2)
	}
}
