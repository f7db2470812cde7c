package adapt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// truthRuntime is the simulated target database's "real" runtime: a
// fixed function of the optimizer cost. Tests feed it back as the
// observed runtime, so an estimator's calibration error is exactly its
// q-error and improvements are deterministic.
func truthRuntime(optimizerCost float64) float64 {
	return 1e-6 * (optimizerCost + 1)
}

// tunableEstimator predicts scale*truthRuntime(cost): a multiplicatively
// miscalibrated model whose q-error is exactly scale (for scale >= 1).
// tune defines what FineTune does to the scale — fit it properly (the
// accepted-swap path) or make it worse (the rejected-swap path).
type tunableEstimator struct {
	name  string
	scale float64
	tune  func(e *tunableEstimator, samples []costmodel.Sample) error
}

func (e *tunableEstimator) Name() string { return e.name }

func (e *tunableEstimator) Fit(ctx context.Context, samples []costmodel.Sample) (*costmodel.FitReport, error) {
	return &costmodel.FitReport{Samples: len(samples)}, nil
}

func (e *tunableEstimator) PredictBatch(ctx context.Context, ins []costmodel.PlanInput) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, len(ins))
	for i, in := range ins {
		out[i] = e.scale * truthRuntime(in.OptimizerCost)
	}
	return out, nil
}

func (e *tunableEstimator) Save(w io.Writer) error { return nil }

func (e *tunableEstimator) Clone() (costmodel.Estimator, error) {
	return &tunableEstimator{name: e.name, scale: e.scale, tune: e.tune}, nil
}

func (e *tunableEstimator) FineTune(ctx context.Context, samples []costmodel.Sample, epochs int, lr float64) (*costmodel.FitReport, error) {
	if e.tune != nil {
		if err := e.tune(e, samples); err != nil {
			return nil, err
		}
	}
	return &costmodel.FitReport{Samples: len(samples)}, nil
}

// goodTune recalibrates the scale from the samples: the median ratio of
// observed runtime to the truth function — 1.0 when feedback follows
// truthRuntime, i.e. a genuinely better model.
func goodTune(e *tunableEstimator, samples []costmodel.Sample) error {
	ratios := make([]float64, len(samples))
	for i, s := range samples {
		ratios[i] = s.RuntimeSec / truthRuntime(s.OptimizerCost)
	}
	e.scale = metrics.Median(ratios)
	return nil
}

// badTune makes the clone strictly worse — the shadow eval must catch it.
func badTune(e *tunableEstimator, samples []costmodel.Sample) error {
	e.scale *= 5
	return nil
}

// failTune simulates a broken fine-tune — the cycle must fail without
// losing the window's evidence.
func failTune(e *tunableEstimator, samples []costmodel.Sample) error {
	return fmt.Errorf("injected fine-tune failure")
}

// fixture is one generated "unseen" database plus executable SQL texts.
var (
	fixOnce sync.Once
	fixDB   *storage.Database
	fixSQLs []string
	fixErr  error
)

func fixtures(t *testing.T) (*storage.Database, []string) {
	t.Helper()
	fixOnce.Do(func() {
		db, err := datagen.IMDBLike(0.05)
		if err != nil {
			fixErr = err
			return
		}
		recs, err := collect.Run(db, collect.Options{Queries: 16, Seed: 31})
		if err != nil {
			fixErr = err
			return
		}
		fixDB = db
		for _, r := range recs {
			fixSQLs = append(fixSQLs, r.Query.SQL())
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixDB, fixSQLs
}

// newAdaptSession attaches the fixture database and the given estimator.
func newAdaptSession(t *testing.T, est costmodel.Estimator) *serving.Session {
	t.Helper()
	db, _ := fixtures(t)
	sess := serving.NewSession(serving.Config{})
	if err := sess.AttachDatabase("target", db); err != nil {
		t.Fatal(err)
	}
	if err := sess.AttachModel(est); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// predictAndFeedbackDB runs one statement through the pipeline against
// the named database and feeds its truth runtime back.
func predictAndFeedbackDB(ctx context.Context, sess *serving.Session, loop *Loop, db, sql string) error {
	p, err := sess.Predict(ctx, db, "", sql)
	if err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	if err := loop.Feedback(ctx, db, p.Fingerprint, truthRuntime(p.OptimizerCost)); err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	return nil
}

func predictAndFeedback(ctx context.Context, sess *serving.Session, loop *Loop, sql string) error {
	return predictAndFeedbackDB(ctx, sess, loop, "target", sql)
}

func TestNewValidatesModelCapabilities(t *testing.T) {
	db, _ := fixtures(t)
	sess := serving.NewSession(serving.Config{})
	defer sess.Close()
	if err := sess.AttachDatabase("target", db); err != nil {
		t.Fatal(err)
	}
	if _, err := New(sess, Config{Model: "nope"}); !errors.Is(err, serving.ErrNotFound) {
		t.Fatalf("unattached model err = %v, want ErrNotFound", err)
	}
	// ScaledCost has neither Clone nor FineTune.
	sc, err := costmodel.New(costmodel.NameScaledCost, costmodel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.AttachModel(sc); err != nil {
		t.Fatal(err)
	}
	if _, err := New(sess, Config{Model: costmodel.NameScaledCost}); err == nil {
		t.Fatal("New accepted an estimator without Clone/FineTune support")
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New accepted a nil session")
	}
}

func TestNewResolvesUnambiguousModel(t *testing.T) {
	est := &tunableEstimator{name: "tunable", scale: 2, tune: goodTune}
	sess := newAdaptSession(t, est)
	loop, err := New(sess, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := loop.Status().Model; got != "tunable" {
		t.Fatalf("resolved model = %q, want tunable", got)
	}
}

func TestFeedbackJoinAndValidation(t *testing.T) {
	est := &tunableEstimator{name: "tunable", scale: 2, tune: goodTune}
	sess := newAdaptSession(t, est)
	loop, err := New(sess, Config{Model: "tunable"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, sqls := fixtures(t)

	if err := loop.Feedback(ctx, "target", "no-such-fingerprint", 0.5); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("unjoined feedback err = %v, want ErrNoPlan", err)
	}
	if err := loop.Feedback(ctx, "nope", "fp", 0.5); !errors.Is(err, serving.ErrNotFound) {
		t.Fatalf("unknown db err = %v, want ErrNotFound", err)
	}
	if err := loop.Feedback(ctx, "target", "fp", 0); err == nil {
		t.Fatal("non-positive runtime accepted")
	}
	if err := loop.Feedback(ctx, "target", "", 0.5); err == nil {
		t.Fatal("empty fingerprint accepted")
	}
	if err := predictAndFeedback(ctx, sess, loop, sqls[0]); err != nil {
		t.Fatal(err)
	}
	st := loop.Status()
	if st.Feedback != 1 || st.JoinMisses != 1 {
		t.Fatalf("status = %+v, want 1 feedback / 1 join miss", st)
	}
	if len(st.Windows) != 1 || st.Windows[0].Pending != 1 || st.Windows[0].Database != "target" {
		t.Fatalf("windows = %+v", st.Windows)
	}
	// scale 2 ⇒ q-error exactly 2 in the drift window.
	if q := st.Windows[0].QError.P50; q < 1.99 || q > 2.01 {
		t.Fatalf("window p50 q-error = %v, want 2", q)
	}
}

func TestSplit(t *testing.T) {
	samples := make([]costmodel.Sample, 10)
	for i := range samples {
		samples[i].RuntimeSec = float64(i)
	}
	train, holdout := split(samples, 4)
	if len(train) != 8 || len(holdout) != 2 {
		t.Fatalf("split = %d train / %d holdout, want 8/2", len(train), len(holdout))
	}
	if holdout[0].RuntimeSec != 3 || holdout[1].RuntimeSec != 7 {
		t.Fatalf("holdout picked %v/%v, want every 4th sample", holdout[0].RuntimeSec, holdout[1].RuntimeSec)
	}
}

// TestSweepRejectsWorseClone drives the rejected-swap path end to end:
// a fine-tune that makes the model worse must fail its shadow eval, the
// serving generation must not change, and the database must back off.
func TestSweepRejectsWorseClone(t *testing.T) {
	est := &tunableEstimator{name: "tunable", scale: 1, tune: badTune}
	sess := newAdaptSession(t, est)
	loop, err := New(sess, Config{
		Model:        "tunable",
		WindowSize:   16,
		MinSamples:   8,
		FreshTrigger: 16, // perfectly calibrated model: only the fresh-sample trigger fires
		HoldoutEvery: 4,
		Backoff:      time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, sqls := fixtures(t)
	feed := func() {
		for i := 0; i < 16; i++ {
			if err := predictAndFeedback(ctx, sess, loop, sqls[i%len(sqls)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed()
	accepted, rejected := loop.Sweep(ctx)
	if accepted != 0 || rejected != 1 {
		t.Fatalf("sweep = %d accepted / %d rejected, want 0/1 (status %+v)", accepted, rejected, loop.Status())
	}
	st := loop.Status()
	if st.SwapsRejected != 1 || st.SwapsAccepted != 0 {
		t.Fatalf("status = %+v", st)
	}
	if st.LastShadow == nil || st.LastShadow.Accepted || st.LastShadow.NewMedian <= st.LastShadow.OldMedian {
		t.Fatalf("shadow eval = %+v, want a rejection with worse new median", st.LastShadow)
	}
	if st.LastRejected == nil || st.LastRejected.Accepted || st.LastRejected.Database != "target" {
		t.Fatalf("last rejected = %+v, want the rejected verdict recorded", st.LastRejected)
	}
	if st.Windows[0].Rejections != 1 {
		t.Fatalf("window rejections = %d, want 1", st.Windows[0].Rejections)
	}
	gen, _, err := sess.ModelGeneration("tunable")
	if err != nil || gen != 1 {
		t.Fatalf("generation = %d (err %v), want 1: rejected swap must not publish", gen, err)
	}
	cur, err := sess.Model("tunable")
	if err != nil || cur != costmodel.Estimator(est) {
		t.Fatalf("serving estimator changed despite rejection")
	}
	// The database is in backoff: a full window must not re-trigger.
	feed()
	if a, r := loop.Sweep(ctx); a != 0 || r != 0 {
		t.Fatalf("backed-off database adapted anyway: %d/%d", a, r)
	}
	if !loop.Status().Windows[0].InBackoff {
		t.Fatalf("window not reporting backoff: %+v", loop.Status().Windows)
	}
}

// TestConfigClamps checks the defaulting keeps every configuration
// adaptable: in particular MinSamples can never drop below HoldoutEvery,
// which would make every drained window unsplittable and every
// adaptation fail.
func TestConfigClamps(t *testing.T) {
	c := Config{MinSamples: 2, HoldoutEvery: 4}.withDefaults()
	if c.MinSamples != 4 {
		t.Fatalf("MinSamples = %d, want clamped to HoldoutEvery 4", c.MinSamples)
	}
	c = Config{WindowSize: 8, MinSamples: 99, FreshTrigger: 99}.withDefaults()
	if c.MinSamples != 8 || c.FreshTrigger != 8 {
		t.Fatalf("MinSamples/FreshTrigger = %d/%d, want clamped to window 8", c.MinSamples, c.FreshTrigger)
	}
	c = Config{}.withDefaults()
	if c.WindowSize != 256 || c.MinSamples != 32 || c.HoldoutEvery != 4 || c.DriftMedian != 1.5 {
		t.Fatalf("defaults = %+v", c)
	}
}

// TestSweepFailureKeepsEvidence injects a fine-tune failure: the cycle
// must requeue the drained samples (not discard a window of joined
// feedback), surface the error in Status, back the database off, and —
// once the failure clears — adapt on the preserved evidence and clear
// the error.
func TestSweepFailureKeepsEvidence(t *testing.T) {
	est := &tunableEstimator{name: "tunable", scale: 4, tune: failTune}
	sess := newAdaptSession(t, est)
	loop, err := New(sess, Config{
		Model:      "tunable",
		WindowSize: 64,
		MinSamples: 8,
		Backoff:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, sqls := fixtures(t)
	for i := 0; i < 12; i++ {
		if err := predictAndFeedback(ctx, sess, loop, sqls[i%len(sqls)]); err != nil {
			t.Fatal(err)
		}
	}
	if a, r := loop.Sweep(ctx); a != 0 || r != 0 {
		t.Fatalf("failed cycle reported %d accepted / %d rejected", a, r)
	}
	st := loop.Status()
	if st.LastError == "" {
		t.Fatal("failed cycle left no LastError")
	}
	if st.Windows[0].Pending != 12 {
		t.Fatalf("pending = %d after failed cycle, want all 12 samples requeued", st.Windows[0].Pending)
	}
	if !st.Windows[0].InBackoff {
		t.Fatal("failed database did not back off")
	}
	// Failure clears: the preserved evidence adapts on the next sweep.
	est.tune = goodTune
	time.Sleep(2 * time.Millisecond) // outlive the backoff
	if a, r := loop.Sweep(ctx); a != 1 || r != 0 {
		t.Fatalf("recovery sweep = %d/%d, want one accepted swap (status %+v)", a, r, loop.Status())
	}
	if st := loop.Status(); st.LastError != "" {
		t.Fatalf("LastError not cleared after success: %q", st.LastError)
	}
}

// TestSweepRecordsFineTuneTelemetry: a sweep that fine-tunes leaves a
// start/finish event pair in the control-plane log and publishes the
// fine-tune wall-time and throughput through Status — the numbers
// /v1/adapt/status serves.
func TestSweepRecordsFineTuneTelemetry(t *testing.T) {
	est := &tunableEstimator{name: "tunable", scale: 4, tune: goodTune}
	sess := newAdaptSession(t, est)
	events := obs.NewLog()
	loop, err := New(sess, Config{
		Model:      "tunable",
		WindowSize: 64,
		MinSamples: 8,
		Events:     events,
		Origin:     "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, sqls := fixtures(t)
	for i := 0; i < 12; i++ {
		if err := predictAndFeedback(ctx, sess, loop, sqls[i%len(sqls)]); err != nil {
			t.Fatal(err)
		}
	}
	if st := loop.Status(); !st.LastFineTune.IsZero() || st.LastFineTuneSec != 0 {
		t.Fatalf("fine-tune telemetry set before any sweep: %+v", st)
	}
	if a, r := loop.Sweep(ctx); a != 1 || r != 0 {
		t.Fatalf("sweep = %d/%d, want one accepted swap (status %+v)", a, r, loop.Status())
	}
	st := loop.Status()
	if st.LastFineTune.IsZero() {
		t.Fatal("LastFineTune not recorded after a fine-tuning sweep")
	}
	if st.LastFineTuneSec <= 0 {
		t.Fatalf("LastFineTuneSec = %v, want > 0", st.LastFineTuneSec)
	}
	if st.FineTuneSamplesPerSec <= 0 {
		t.Fatalf("FineTuneSamplesPerSec = %v, want > 0", st.FineTuneSamplesPerSec)
	}
	var started, finished *obs.Event
	for _, ev := range events.Since(0, 0) {
		ev := ev
		switch ev.Type {
		case obs.EventFineTuneStarted:
			started = &ev
		case obs.EventFineTuneFinished:
			finished = &ev
		}
	}
	if started == nil || finished == nil {
		t.Fatalf("event log missing fine-tune pair: %+v", events.Since(0, 0))
	}
	if started.Seq >= finished.Seq {
		t.Fatalf("started (seq %d) not before finished (seq %d)", started.Seq, finished.Seq)
	}
	if started.Fields["db"] != "target" || started.Fields["model"] != "tunable" {
		t.Fatalf("started fields = %v", started.Fields)
	}
	if finished.Fields["duration_ms"] == "" || finished.Fields["samples_per_sec"] == "" {
		t.Fatalf("finished fields missing duration/throughput: %v", finished.Fields)
	}
}

// TestConsumeKeepsMidCycleArrivals exercises the full-ring corner of
// the window bookkeeping: feedback that arrives while a cycle fine-tunes
// overwrites the oldest (snapshotted) samples, and consuming the
// snapshot afterwards must keep exactly those fresh arrivals.
func TestConsumeKeepsMidCycleArrivals(t *testing.T) {
	w := &dbWindow{samples: make([]costmodel.Sample, 8), qerr: metrics.NewWindow(8)}
	for i := 0; i < 8; i++ {
		w.add(costmodel.Sample{RuntimeSec: float64(i)}, 1)
	}
	snap := w.contents() // full ring snapshot
	// Three arrivals during the cycle overwrite the three oldest.
	for i := 0; i < 3; i++ {
		w.add(costmodel.Sample{RuntimeSec: float64(100 + i)}, 1)
	}
	w.consume(len(snap), 3)
	if w.filled != 3 {
		t.Fatalf("pending = %d after consume, want the 3 mid-cycle arrivals", w.filled)
	}
	for i, s := range w.contents() {
		if s.RuntimeSec != float64(100+i) {
			t.Fatalf("survivor %d = %v, want the mid-cycle arrival %d", i, s.RuntimeSec, 100+i)
		}
	}
	// Non-full ring: arrivals fit in free space, the whole snapshot drops.
	w2 := &dbWindow{samples: make([]costmodel.Sample, 8), qerr: metrics.NewWindow(8)}
	for i := 0; i < 4; i++ {
		w2.add(costmodel.Sample{RuntimeSec: float64(i)}, 1)
	}
	snap2 := w2.contents()
	w2.add(costmodel.Sample{RuntimeSec: 200}, 1)
	w2.consume(len(snap2), 1)
	if w2.filled != 1 || w2.contents()[0].RuntimeSec != 200 {
		t.Fatalf("pending = %d (%v), want just the arrival", w2.filled, w2.contents())
	}
}

// TestSweepPartialFailureKeepsError runs one sweep over two triggered
// databases where one cycle fails and the other succeeds: the failure
// must stay visible in Status regardless of which ran first.
func TestSweepPartialFailureKeepsError(t *testing.T) {
	var calls atomic.Int32
	est := &tunableEstimator{name: "tunable", scale: 4, tune: func(e *tunableEstimator, s []costmodel.Sample) error {
		if calls.Add(1) == 1 {
			return fmt.Errorf("injected first-cycle failure")
		}
		return goodTune(e, s)
	}}
	db, sqls := fixtures(t)
	sess := serving.NewSession(serving.Config{})
	defer sess.Close()
	for _, name := range []string{"a", "b"} {
		if err := sess.AttachDatabase(name, db); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.AttachModel(est); err != nil {
		t.Fatal(err)
	}
	loop, err := New(sess, Config{Model: "tunable", WindowSize: 64, MinSamples: 8, Backoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{"a", "b"} {
		for i := 0; i < 8; i++ {
			if err := predictAndFeedbackDB(ctx, sess, loop, name, sqls[i%len(sqls)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	accepted, rejected := loop.Sweep(ctx)
	if accepted+rejected != 1 {
		t.Fatalf("sweep = %d accepted / %d rejected, want exactly one completed cycle", accepted, rejected)
	}
	st := loop.Status()
	if !strings.Contains(st.LastError, "injected") {
		t.Fatalf("LastError = %q: the failed database's error was erased by the successful one", st.LastError)
	}
}

// TestAdaptE2EAcceptedHotSwap is the -race end-to-end test of the whole
// closed loop: concurrent predict + feedback traffic against an unseen
// database drifts the window (the serving model is 4x miscalibrated),
// the background worker fine-tunes a clone, the shadow eval accepts it,
// and the hot-swap publishes a measurably better generation — post-swap
// median q-error beats the pre-swap model on the same statements.
func TestAdaptE2EAcceptedHotSwap(t *testing.T) {
	orig := &tunableEstimator{name: "tunable", scale: 4, tune: goodTune}
	sess := newAdaptSession(t, orig)
	loop, err := New(sess, Config{
		Model:      "tunable",
		WindowSize: 512, // larger than total traffic: only drift triggers
		MinSamples: 16,
		Interval:   2 * time.Millisecond,
		Backoff:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	loop.Start()
	defer loop.Close()

	ctx := context.Background()
	_, sqls := fixtures(t)
	const clients = 4
	const itersPerClient = 60
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < itersPerClient; i++ {
				if err := predictAndFeedback(ctx, sess, loop, sqls[(c+i)%len(sqls)]); err != nil {
					errCh <- fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The background worker usually swaps mid-traffic; if the timing
	// missed, the buffered window still holds plenty of drifted samples.
	deadline := time.Now().Add(10 * time.Second)
	for loop.Status().SwapsAccepted == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if loop.Status().SwapsAccepted == 0 {
		loop.Sweep(ctx)
	}

	st := loop.Status()
	if st.SwapsAccepted < 1 {
		t.Fatalf("no accepted hot-swap: %+v", st)
	}
	if st.LastSwap.IsZero() {
		t.Fatalf("accepted swap left LastSwap zero: %+v", st)
	}
	gen, swapped, err := sess.ModelGeneration("tunable")
	if err != nil || gen < 2 || swapped.IsZero() {
		t.Fatalf("generation = %d swapped %v (err %v), want >= 2", gen, swapped, err)
	}

	// Post-swap vs pre-swap on a holdout of statements: the published
	// generation must beat the original model it replaced.
	var newQ, oldQ []float64
	for _, sql := range sqls {
		p, err := sess.Predict(ctx, "target", "", sql)
		if err != nil {
			t.Fatal(err)
		}
		actual := truthRuntime(p.OptimizerCost)
		newQ = append(newQ, metrics.QError(p.RuntimeSec, actual))
		in, ok, err := sess.CachedPlan("target", p.Fingerprint)
		if err != nil || !ok {
			t.Fatalf("cached plan lookup failed: ok=%v err=%v", ok, err)
		}
		origPred, err := orig.PredictBatch(ctx, []costmodel.PlanInput{in})
		if err != nil {
			t.Fatal(err)
		}
		oldQ = append(oldQ, metrics.QError(origPred[0], actual))
	}
	newMed, oldMed := metrics.Median(newQ), metrics.Median(oldQ)
	if newMed >= oldMed {
		t.Fatalf("post-swap median q-error %.3f did not improve over pre-swap %.3f", newMed, oldMed)
	}
	if newMed > 1.05 {
		t.Fatalf("post-swap median q-error %.3f, want ~1 (goodTune recalibrates exactly)", newMed)
	}
}

// TestOnAcceptHookAndRejectedSurvival drives a rejection followed by an
// accepted swap: OnAccept must fire exactly once with the published
// clone and its verdict, and the earlier rejection must stay visible in
// Status after the accept overwrites LastShadow.
func TestOnAcceptHookAndRejectedSurvival(t *testing.T) {
	est := &tunableEstimator{name: "tunable", scale: 4, tune: badTune}
	sess := newAdaptSession(t, est)

	type acceptCall struct {
		est     costmodel.Estimator
		eval    ShadowEval
		samples int
	}
	var calls []acceptCall
	loop, err := New(sess, Config{
		Model:      "tunable",
		WindowSize: 64,
		MinSamples: 8,
		Backoff:    time.Millisecond,
		OnAccept: func(ctx context.Context, est costmodel.Estimator, eval ShadowEval, samples int) {
			calls = append(calls, acceptCall{est, eval, samples})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, sqls := fixtures(t)
	feed := func() {
		for i := 0; i < 8; i++ {
			if err := predictAndFeedback(ctx, sess, loop, sqls[i%len(sqls)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed()
	if a, r := loop.Sweep(ctx); a != 0 || r != 1 {
		t.Fatalf("rejection sweep = %d/%d", a, r)
	}
	if len(calls) != 0 {
		t.Fatalf("OnAccept fired on a rejection: %d calls", len(calls))
	}

	est.tune = goodTune
	time.Sleep(2 * time.Millisecond) // outlive the backoff
	feed()
	if a, r := loop.Sweep(ctx); a != 1 || r != 0 {
		t.Fatalf("accept sweep = %d/%d (status %+v)", a, r, loop.Status())
	}
	if len(calls) != 1 {
		t.Fatalf("OnAccept calls = %d, want 1", len(calls))
	}
	call := calls[0]
	if !call.eval.Accepted || call.eval.Database != "target" || call.samples != 8 {
		t.Fatalf("OnAccept call = %+v", call)
	}
	// The hook hands over the clone that is now serving.
	serving, err := sess.Model("tunable")
	if err != nil || call.est != serving {
		t.Fatalf("OnAccept estimator is not the serving generation (err %v)", err)
	}
	// The old rejection survives the accept.
	st := loop.Status()
	if st.LastShadow == nil || !st.LastShadow.Accepted {
		t.Fatalf("LastShadow = %+v, want the accept", st.LastShadow)
	}
	if st.LastRejected == nil || st.LastRejected.Accepted {
		t.Fatalf("LastRejected = %+v, want the earlier rejection preserved", st.LastRejected)
	}
	if st.Windows[0].Rejections != 1 {
		t.Fatalf("window rejections = %d, want 1", st.Windows[0].Rejections)
	}
}

// TestLoopCloseIdempotent checks Start/Close lifecycle corners.
func TestLoopCloseIdempotent(t *testing.T) {
	est := &tunableEstimator{name: "tunable", scale: 1, tune: goodTune}
	sess := newAdaptSession(t, est)
	loop, err := New(sess, Config{Model: "tunable"})
	if err != nil {
		t.Fatal(err)
	}
	loop.Close() // never started
	loop.Close() // idempotent

	loop2, err := New(sess, Config{Model: "tunable", Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	loop2.Start()
	loop2.Start() // idempotent
	time.Sleep(5 * time.Millisecond)
	loop2.Close()
	loop2.Close()
	if loop2.Status().Sweeps == 0 {
		t.Fatal("background worker never swept")
	}
}

// blockingTuner is a tunableEstimator whose clones' FineTune blocks until
// its ctx is done, reporting on entered when it starts and the ctx error
// it saw on sawErr.
type blockingTuner struct {
	*tunableEstimator
	entered chan struct{}
	sawErr  chan error
}

func (b *blockingTuner) Clone() (costmodel.Estimator, error) {
	inner, _ := b.tunableEstimator.Clone()
	return &blockingTuner{tunableEstimator: inner.(*tunableEstimator), entered: b.entered, sawErr: b.sawErr}, nil
}

func (b *blockingTuner) FineTune(ctx context.Context, samples []costmodel.Sample, epochs int, lr float64) (*costmodel.FitReport, error) {
	b.entered <- struct{}{}
	<-ctx.Done()
	b.sawErr <- ctx.Err()
	return nil, ctx.Err()
}

// TestLoopCloseCancelsInFlightFineTune starts the background worker,
// lets it enter a fine-tune that only returns once its ctx ends, and
// checks Close cancels that cycle: Close returns promptly, the fine-tune
// saw context.Canceled, and no goroutine the Loop started outlives it.
func TestLoopCloseCancelsInFlightFineTune(t *testing.T) {
	est := &blockingTuner{
		tunableEstimator: &tunableEstimator{name: "tunable", scale: 4},
		entered:          make(chan struct{}, 1),
		sawErr:           make(chan error, 1),
	}
	sess := newAdaptSession(t, est)
	loop, err := New(sess, Config{Model: "tunable", WindowSize: 64, MinSamples: 8, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, sqls := fixtures(t)
	for i := 0; i < 12; i++ {
		if err := predictAndFeedback(ctx, sess, loop, sqls[i%len(sqls)]); err != nil {
			t.Fatal(err)
		}
	}
	// The session's goroutines (its scheduler queue) exist by now; only
	// the Loop's come and go below.
	baseline := runtime.NumGoroutine()
	loop.Start()
	select {
	case <-est.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the background worker never started a fine-tune")
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		loop.Close()
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return within 2s of an in-flight fine-tune")
	}
	select {
	case err := <-est.sawErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("the in-flight fine-tune saw %v, want context.Canceled", err)
		}
	default:
		t.Fatal("Close returned before the in-flight fine-tune ended")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after Close, %d before Start:\n%s", runtime.NumGoroutine(), baseline, buf)
		}
	}
}
