package serving

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

// zeroShotSession serves a small zero-shot model, fitted on executions
// of the IMDB fixture, over that database. It returns the session, the
// statements to serve and the training samples.
func zeroShotSession(t *testing.T) (*Session, []string, []costmodel.Sample) {
	t.Helper()
	imdb, _ := fixtures(t)
	recs, err := collect.Run(imdb.db, collect.Options{Queries: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	samples := costmodel.FromRecords(imdb.db, recs)
	est, err := costmodel.New(costmodel.NameZeroShot, costmodel.Options{Hidden: 16, Epochs: 2, Seed: 1, Card: encoding.CardEstimated})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Fit(context.Background(), samples); err != nil {
		t.Fatal(err)
	}
	sess := NewSession(Config{})
	t.Cleanup(func() { sess.Close() })
	if err := sess.AttachDatabase("imdb", imdb.db); err != nil {
		t.Fatal(err)
	}
	if err := sess.AttachModel(est); err != nil {
		t.Fatal(err)
	}
	return sess, imdb.sqls, samples
}

// servingZeroShot returns the zero-shot generation the session serves.
func servingZeroShot(t *testing.T, sess *Session) *costmodel.ZeroShot {
	t.Helper()
	est, err := sess.Model(costmodel.NameZeroShot)
	if err != nil {
		t.Fatal(err)
	}
	return est.(*costmodel.ZeroShot)
}

// freshAnswer prices a cached statement the long way round: its plan
// encoded afresh and one pass of the model's current weights.
func freshAnswer(t *testing.T, sess *Session, zs *costmodel.ZeroShot, fingerprint string) float64 {
	t.Helper()
	in, ok, err := sess.CachedPlan("imdb", fingerprint)
	if err != nil || !ok {
		t.Fatalf("plan %s not cached (%v)", fingerprint, err)
	}
	g, err := encoding.NewPlanEncoder(in.DB.Schema, zs.Card()).Encode(in.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return zs.Model().PredictBatch([]*encoding.Graph{g})[0]
}

// fineTuned returns a clone of the serving generation fine-tuned on the
// samples, ready to attach or publish.
func fineTuned(t *testing.T, sess *Session, samples []costmodel.Sample) costmodel.Estimator {
	t.Helper()
	c := servingZeroShot(t, sess).Clone()
	if _, err := c.FineTune(context.Background(), samples, 2, 0.01); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPredictionMemoFollowsWeights checks that a memoized answer never
// outlives the weights that priced it: after each way the serving
// weights can change, every statement — single or batched, first
// request or repeat — is answered with a fresh pass's bits under the new
// weights, which differ from the answers served before.
func TestPredictionMemoFollowsWeights(t *testing.T) {
	sess, sqls, samples := zeroShotSession(t)
	ctx := context.Background()
	tuneSet := samples[:8]

	served := func(step string, before []float64) []float64 {
		t.Helper()
		zs := servingZeroShot(t, sess)
		got := make([]float64, len(sqls))
		for pass := 0; pass < 2; pass++ { // the second pass answers from the memo
			for i, sql := range sqls {
				p, err := sess.Predict(ctx, "imdb", "", sql)
				if err != nil {
					t.Fatal(err)
				}
				want := freshAnswer(t, sess, zs, p.Fingerprint)
				if math.Float64bits(p.RuntimeSec) != math.Float64bits(want) {
					t.Fatalf("after %s, pass %d: statement %d served %v, fresh pass %v", step, pass, i, p.RuntimeSec, want)
				}
				if before != nil && p.RuntimeSec == before[i] {
					t.Fatalf("after %s: statement %d still served %v, the answer from before", step, i, before[i])
				}
				got[i] = p.RuntimeSec
			}
		}
		res, err := sess.PredictBatch(ctx, "imdb", "", sqls)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range res.Items {
			if it.Err != nil || math.Float64bits(it.RuntimeSec) != math.Float64bits(got[i]) {
				t.Fatalf("after %s: batch item %d = (%v, %v), single %v", step, i, it.RuntimeSec, it.Err, got[i])
			}
		}
		return got
	}
	answers := served("Fit", nil)

	zs := servingZeroShot(t, sess)
	if _, err := zs.Fit(ctx, samples); err != nil {
		t.Fatal(err)
	}
	answers = served("a second Fit", answers)

	if _, err := zs.FineTune(ctx, tuneSet, 2, 0.01); err != nil {
		t.Fatal(err)
	}
	answers = served("FineTune", answers)

	// Count the context checks of a whole fine-tune on a clone, then
	// cancel the serving model's own fine-tune at its last check: the
	// last epoch's minibatch, after the first epoch has moved the
	// weights.
	clone := zs.Clone()
	counter := newCancelAfterN(math.MaxInt32)
	if _, err := clone.FineTune(counter, tuneSet, 2, 0.01); err != nil {
		t.Fatal(err)
	}
	checks := math.MaxInt32 - counter.remaining.Load()
	_, err := zs.FineTune(newCancelAfterN(checks-1), tuneSet, 2, 0.01)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "mid-epoch") {
		t.Fatalf("fine-tune cancelled %d checks in = %v, want a mid-epoch cancellation", checks-1, err)
	}
	answers = served("a cancelled FineTune", answers)

	if err := sess.AttachModel(fineTuned(t, sess, tuneSet)); err != nil {
		t.Fatal(err)
	}
	answers = served("Clone, FineTune and AttachModel", answers)

	store, err := bundle.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	next := fineTuned(t, sess, tuneSet)
	v := next.(*costmodel.ZeroShot).Model().Version()
	if _, err := bundle.NewPublisher(store, 0).Publish(ctx, next, bundle.Meta{}); err != nil {
		t.Fatal(err)
	}
	if next.(*costmodel.ZeroShot).Model().Version() != v {
		t.Fatal("publishing (a Save) moved the published model's version")
	}
	d, err := bundle.NewDistributor(bundle.DistConfig{Store: store, Target: sess, Estimator: costmodel.NameZeroShot})
	if err != nil {
		t.Fatal(err)
	}
	if act, err := d.PollOnce(ctx); err != nil || !act {
		t.Fatalf("PollOnce = (%v, %v), want an activation", act, err)
	}
	answers = served("a bundle activation", answers)

	// A write through Params: shift the readout's output bias, which
	// moves every log-runtime.
	ps := servingZeroShot(t, sess).Model().Params()
	ps[len(ps)-1].Val.Data[0] += 0.25
	served("a write through Params", answers)
}

// TestPredictionMemoConcurrentSwap races memo hits and answer stores on
// the session's shared plan-cache memos against clone fine-tunes and
// hot swaps (run under -race in CI). Every answer served must be the
// bits of a fresh pass under one of the generations attached, and once
// the swaps stop, under the last.
func TestPredictionMemoConcurrentSwap(t *testing.T) {
	sess, sqls, samples := zeroShotSession(t)
	ctx := context.Background()

	gens := []*costmodel.ZeroShot{servingZeroShot(t, sess)}
	var (
		mu   sync.Mutex
		seen = map[string]map[float64]bool{} // fingerprint -> answers served
	)
	record := func(fp string, v float64) {
		mu.Lock()
		defer mu.Unlock()
		if seen[fp] == nil {
			seen[fp] = map[float64]bool{}
		}
		seen[fp][v] = true
	}

	const clients = 3
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, clients) // each client sends at most once
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				for _, sql := range sqls {
					p, err := sess.Predict(ctx, "imdb", "", sql)
					if err != nil {
						errCh <- err
						return
					}
					record(p.Fingerprint, p.RuntimeSec)
				}
				if g == 0 {
					if _, err := sess.PredictBatch(ctx, "imdb", "", sqls); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	for round := 0; round < 3; round++ {
		next := fineTuned(t, sess, samples[round*4:round*4+8])
		gens = append(gens, next.(*costmodel.ZeroShot))
		if err := sess.AttachModel(next); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	for fp, vals := range seen {
		priced := map[float64]bool{}
		for _, zs := range gens {
			priced[freshAnswer(t, sess, zs, fp)] = true
		}
		for v := range vals {
			if !priced[v] {
				t.Fatalf("statement %s served %v, which no attached generation's fresh pass returns", fp, v)
			}
		}
	}
	last := gens[len(gens)-1]
	for _, sql := range sqls {
		p, err := sess.Predict(ctx, "imdb", "", sql)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshAnswer(t, sess, last, p.Fingerprint); math.Float64bits(p.RuntimeSec) != math.Float64bits(want) {
			t.Fatalf("after the swaps: %v, the last generation's fresh pass %v", p.RuntimeSec, want)
		}
	}
}
