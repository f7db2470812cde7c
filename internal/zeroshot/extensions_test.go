package zeroshot

import (
	"context"
	"math"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/hwsim"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
)

// TestZeroShotPredictsResourceConsumption exercises the Section 4.3
// extension: the same model class, trained on peak-memory targets instead
// of runtimes, predicts the resource consumption of queries on an unseen
// database.
func TestZeroShotPredictsResourceConsumption(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.MaxRows = 15000
	trainDBs, err := datagen.TrainingCorpus(3, 41, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var train []Sample
	for i, db := range trainDBs {
		recs, err := collect.Run(db, collect.Options{Queries: 120, Seed: int64(700 + i)})
		if err != nil {
			t.Fatal(err)
		}
		enc := encoding.NewPlanEncoder(db.Schema, encoding.CardExact)
		for _, r := range recs {
			g, err := enc.Encode(r.Plan)
			if err != nil {
				t.Fatal(err)
			}
			// Target is megabytes of peak working set, not runtime.
			train = append(train, Sample{Graph: g, RuntimeSec: r.PeakMemBytes / (1 << 20)})
		}
	}
	m := New(smallConfig())
	if _, err := m.Train(context.Background(), train); err != nil {
		t.Fatal(err)
	}

	imdb, err := datagen.IMDBLike(0.05)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := collect.Run(imdb, collect.Options{Queries: 50, Seed: 808})
	if err != nil {
		t.Fatal(err)
	}
	enc := encoding.NewPlanEncoder(imdb.Schema, encoding.CardExact)
	var preds, actuals []float64
	meanLog := 0.0
	for _, r := range recs {
		g, err := enc.Encode(r.Plan)
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, m.PredictBatch([]*encoding.Graph{g})[0])
		actuals = append(actuals, r.PeakMemBytes/(1<<20))
		meanLog += math.Log(r.PeakMemBytes / (1 << 20))
	}
	meanLog /= float64(len(recs))
	sum, err := metrics.Summarize(preds, actuals)
	if err != nil {
		t.Fatal(err)
	}
	constPreds := make([]float64, len(actuals))
	for i := range constPreds {
		constPreds[i] = math.Exp(meanLog)
	}
	constSum, _ := metrics.Summarize(constPreds, actuals)
	t.Logf("resource prediction on unseen db: %v (constant baseline %v)", sum, constSum)
	if sum.Median > constSum.Median {
		t.Fatalf("memory model median %.2f no better than constant %.2f", sum.Median, constSum.Median)
	}
	if sum.Median > 2.5 {
		t.Fatalf("memory model median q-error %.2f too high", sum.Median)
	}
}

// hwDescriptor converts a simulator profile into encoding features.
func hwDescriptor(p hwsim.Profile) encoding.Hardware {
	relCPU, relSeq, relRand, cacheMB, pool := p.Descriptor()
	return encoding.Hardware{
		RelCPU: relCPU, RelSeqIO: relSeq, RelRandIO: relRand,
		CacheMB: cacheMB, BufferPoolPages: pool,
	}
}

// TestCrossHardwarePrediction exercises the other Section 4.3 extension:
// with hardware descriptors in the encoding, one model trained on
// executions from two machines predicts per-machine runtimes on an unseen
// database; without the descriptors the mixed-hardware corpus has
// conflicting targets and the model degrades.
func TestCrossHardwarePrediction(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.MaxRows = 15000
	trainDBs, err := datagen.TrainingCorpus(3, 43, cfg)
	if err != nil {
		t.Fatal(err)
	}
	profiles := []hwsim.Profile{hwsim.DefaultProfile(), hwsim.FastProfile()}
	var aware, blind []Sample
	for i, db := range trainDBs {
		for pi, prof := range profiles {
			recs, err := collect.Run(db, collect.Options{
				Queries: 70,
				Seed:    int64(100*i + pi),
				Profile: prof,
			})
			if err != nil {
				t.Fatal(err)
			}
			encAware := encoding.NewPlanEncoder(db.Schema, encoding.CardExact).WithHardware(hwDescriptor(prof))
			encBlind := encoding.NewPlanEncoder(db.Schema, encoding.CardExact)
			for _, r := range recs {
				ga, err := encAware.Encode(r.Plan)
				if err != nil {
					t.Fatal(err)
				}
				gb, err := encBlind.Encode(r.Plan)
				if err != nil {
					t.Fatal(err)
				}
				aware = append(aware, Sample{Graph: ga, RuntimeSec: r.RuntimeSec})
				blind = append(blind, Sample{Graph: gb, RuntimeSec: r.RuntimeSec})
			}
		}
	}
	mAware := New(smallConfig())
	if _, err := mAware.Train(context.Background(), aware); err != nil {
		t.Fatal(err)
	}
	mBlind := New(smallConfig())
	if _, err := mBlind.Train(context.Background(), blind); err != nil {
		t.Fatal(err)
	}

	imdb, err := datagen.IMDBLike(0.05)
	if err != nil {
		t.Fatal(err)
	}
	var awarePreds, blindPreds, actuals []float64
	for pi, prof := range profiles {
		recs, err := collect.Run(imdb, collect.Options{Queries: 30, Seed: int64(9000 + pi), Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		encAware := encoding.NewPlanEncoder(imdb.Schema, encoding.CardExact).WithHardware(hwDescriptor(prof))
		encBlind := encoding.NewPlanEncoder(imdb.Schema, encoding.CardExact)
		for _, r := range recs {
			ga, err := encAware.Encode(r.Plan)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := encBlind.Encode(r.Plan)
			if err != nil {
				t.Fatal(err)
			}
			awarePreds = append(awarePreds, mAware.PredictBatch([]*encoding.Graph{ga})[0])
			blindPreds = append(blindPreds, mBlind.PredictBatch([]*encoding.Graph{gb})[0])
			actuals = append(actuals, r.RuntimeSec)
		}
	}
	awareSum, err := metrics.Summarize(awarePreds, actuals)
	if err != nil {
		t.Fatal(err)
	}
	blindSum, _ := metrics.Summarize(blindPreds, actuals)
	t.Logf("cross-hardware: aware %v, blind %v", awareSum, blindSum)
	if awareSum.Median > blindSum.Median {
		t.Fatalf("hardware-aware model median %.2f no better than blind %.2f",
			awareSum.Median, blindSum.Median)
	}
}
