package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

const (
	// cycleFeedback is the feedback samples per few-shot cycle, and the
	// adaptation window: every cycle fills it exactly, so every Sweep
	// fine-tunes. With 4 epochs a cycle takes 100-300 ms on two cores.
	cycleFeedback = 128
	fewshotEpochs = 4
	feedbackPool  = 512 // truth[:feedbackPool] is drawn from
	driftHoldout  = 128 // truth[feedbackPool:feedbackPool+driftHoldout] is held out
	fewshotDB     = "imdb"
	driftUp       = 3.0
	driftDown     = 1 / driftUp
)

// fewshot is the feedback-to-fleet control loop, in process: session A
// serves and adapts, every accepted fine-tune is published as a bundle,
// and session B follows the store as a second replica would.
type fewshot struct {
	a, b  *serving.Session
	loop  *adapt.Loop
	dist  *bundle.Distributor
	model string
	dir   string

	// publishedAt is when the last accepted model entered Publish;
	// toActiveMs, per cycle, how long after that the replica served it.
	publishedAt time.Time
	publishErr  error
	toActiveMs  []float64

	cycles  int
	holdSQL []string
	hold    []truthRec
	pool    []truthRec
}

// newFewshot constructs both sessions and the store between them; this is
// the workload's set-up.
func newFewshot(e *env) (*fewshot, error) {
	f := &fewshot{
		pool: e.truth[:feedbackPool],
		hold: e.truth[feedbackPool : feedbackPool+driftHoldout],
	}
	for _, t := range f.hold {
		f.holdSQL = append(f.holdSQL, t.SQL)
	}
	var err error
	if f.dir, err = os.MkdirTemp(e.buildDir, "bundles-*"); err != nil {
		return nil, err
	}
	store, err := bundle.NewDirStore(filepath.Join(f.dir, "store"))
	if err != nil {
		return nil, err
	}
	pub := bundle.NewPublisher(store, bundle.DefaultRetain)
	for _, sess := range []**serving.Session{&f.a, &f.b} {
		if *sess, err = newReference(e, []string{fewshotDB}); err != nil {
			return nil, err
		}
	}
	f.model = f.a.Models()[0]
	f.loop, err = adapt.New(f.a, adapt.Config{
		Model:        f.model,
		WindowSize:   cycleFeedback,
		MinSamples:   cycleFeedback,
		FreshTrigger: cycleFeedback,
		Epochs:       fewshotEpochs,
		Backoff:      time.Nanosecond, // a rejected cycle must not stall the next
		OnAccept: func(ctx context.Context, est costmodel.Estimator, eval adapt.ShadowEval, samples int) {
			f.publishedAt = time.Now()
			_, f.publishErr = pub.Publish(ctx, est, bundle.Meta{Fingerprint: "adapt:" + eval.Database, Samples: samples})
		},
	})
	if err != nil {
		return nil, err
	}
	f.dist, err = bundle.NewDistributor(bundle.DistConfig{Store: store, Target: f.b, Estimator: f.model})
	return f, err
}

func (f *fewshot) close() {
	f.loop.Close()
	f.a.Close()
	f.b.Close()
	os.RemoveAll(f.dir)
}

// cycle is one operation: cycleFeedback predictions with their observed
// runtimes fed back, one Sweep that must accept, one poll that must
// activate the published revision on B, and a check that B now answers
// exactly as A does. Runtimes drift x3 and x1/3 on alternate cycles, so
// every cycle adapts to a real change. It returns B's median q-error on
// the drifted holdout. rec, when non-nil, records the layer spans.
func (f *fewshot) cycle(rec *recorder, next func() truthRec) (float64, error) {
	ctx := context.Background()
	drift := driftUp
	if f.cycles%2 == 1 {
		drift = driftDown
	}
	req := f.cycles
	f.cycles++
	for i := 0; i < cycleFeedback; i++ {
		t := next()
		var pred serving.Prediction
		var err error
		rec.call("predict", req, func() { pred, err = f.a.Predict(ctx, fewshotDB, "", t.SQL) })
		if err != nil {
			return 0, err
		}
		rec.call("feedback", req, func() { err = f.loop.Feedback(ctx, fewshotDB, pred.Fingerprint, t.RuntimeSec*drift) })
		if err != nil {
			return 0, err
		}
	}
	genBefore, _, err := f.b.ModelGeneration(f.model)
	if err != nil {
		return 0, err
	}
	var accepted, rejected int
	rec.call("sweep", req, func() { accepted, rejected = f.loop.Sweep(ctx) })
	if accepted != 1 || rejected != 0 {
		return 0, fmt.Errorf("sweep accepted %d, rejected %d (%s)", accepted, rejected, f.loop.Status().LastError)
	}
	if f.publishErr != nil {
		return 0, fmt.Errorf("publish: %w", f.publishErr)
	}
	var activated bool
	rec.call("activate", req, func() { activated, err = f.dist.PollOnce(ctx) })
	if err != nil || !activated {
		return 0, fmt.Errorf("poll activated=%v: %v", activated, err)
	}
	f.toActiveMs = append(f.toActiveMs, float64(time.Since(f.publishedAt))/float64(time.Millisecond))
	genAfter, _, err := f.b.ModelGeneration(f.model)
	if err != nil {
		return 0, err
	}
	if genAfter <= genBefore {
		return 0, fmt.Errorf("replica generation %d did not advance past %d", genAfter, genBefore)
	}
	want, err := f.a.PredictBatch(ctx, fewshotDB, "", f.holdSQL)
	if err != nil {
		return 0, err
	}
	got, err := f.b.PredictBatch(ctx, fewshotDB, "", f.holdSQL)
	if err != nil {
		return 0, err
	}
	qs := make([]float64, len(f.hold))
	for i, t := range f.hold {
		if want.Items[i].Err != nil || got.Items[i].Err != nil || want.Items[i].RuntimeSec != got.Items[i].RuntimeSec {
			return 0, fmt.Errorf("replica answers %v for %q, adapter answers %v", got.Items[i].RuntimeSec, t.SQL, want.Items[i].RuntimeSec)
		}
		qs[i] = qerror(got.Items[i].RuntimeSec, t.RuntimeSec*drift)
	}
	return median(qs), nil
}

// fewshotStream draws the feedback statements: which executed queries a
// cycle reports back is what --seed decides. The returned func is for the
// one goroutine that drives the cycles.
func fewshotStream(pool []truthRec, seed int64) (*stream, func() truthRec) {
	rng := rand.New(rand.NewSource(seed))
	last := 0
	s := newStream(func() request {
		last = rng.Intn(len(pool))
		return request{kind: opPredict, db: fewshotDB, sqls: []string{pool[last].SQL}}
	})
	return s, func() truthRec {
		s.next()
		return pool[last]
	}
}

// driveFewshot runs cycles until start+dur. qerrs aligns with the
// returned samples (0 for a failed cycle).
func driveFewshot(f *fewshot, next func() truthRec, start time.Time, dur time.Duration) (res loadResult, qerrs []float64) {
	for {
		t0 := time.Now()
		if t0.Sub(start) >= dur {
			return res, qerrs
		}
		q, err := f.cycle(nil, next)
		end := time.Now()
		res.ph.attempted++
		if err != nil {
			res.ph.fail(err)
		} else {
			res.items += cycleFeedback
		}
		qerrs = append(qerrs, q)
		res.samples = append(res.samples, opSample{start: t0.Sub(start), end: end.Sub(start), items: cycleFeedback, ok: err == nil})
	}
}

// measureFewshot measures cycles as measureHTTP measures requests; the
// system under test is this process, so its CPU time is the harness's own.
func measureFewshot(f *fewshot, next func() truthRec, warmup, seconds time.Duration) (m measured, qerrs []float64, err error) {
	m, err = measure(
		func(start time.Time, dur time.Duration) loadResult {
			var res loadResult
			res, qerrs = driveFewshot(f, next, start, dur)
			return res
		},
		func() (float64, error) { return selfCPUUs(), nil },
		warmup, seconds)
	if err == nil && m.win.ops == 0 {
		err = fmt.Errorf("fewshot-cycle: no cycle completed in %v (%v)", seconds, m.ph.firstErr)
	}
	return m, qerrs, err
}
