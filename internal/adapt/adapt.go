// Package adapt closes the loop between serving and training: it turns
// runtimes observed at serve time into continuously adapted cost models
// with no downtime — the online, production-shaped version of the
// paper's few-shot mode (Section 4.3), which the experiment harness only
// reproduces as an offline sweep.
//
// A Loop sits between a serving.Session and the costmodel estimator
// attached to it, and runs four mechanisms:
//
//  1. Feedback ingestion. POST /v1/feedback hands the Loop a (database,
//     fingerprint, actual runtime) triple. The fingerprint joins against
//     the session plan cache's retained PlanInput, producing a
//     costmodel.Sample that lands in a bounded per-database ring buffer.
//  2. Drift detection. Each feedback's q-error (the serving generation's
//     prediction vs. the observed runtime) feeds a sliding
//     metrics.Window; an adaptation triggers when the window's p50/p95
//     exceed configured thresholds, or when enough fresh samples pile up
//     regardless of drift.
//  3. Background fine-tuning. A triggered database snapshots its buffer
//     (consumed only once the cycle completes — a failed cycle keeps the
//     evidence); the worker clones the serving estimator
//     (costmodel.Tuner — Fit and FineTune must never run concurrently
//     with inference, so the attached generation is never touched),
//     fine-tunes the clone at a reduced learning rate, and
//     shadow-evaluates old vs. new on a holdout slice of the drained
//     window. Only if the clone's median
//     q-error improves is it published through Session.AttachModel —
//     the scheduler resolves generations at flush time, so the swap is
//     a hot one. Otherwise the clone is discarded and the database backs
//     off before retrying.
//  4. Observability. Status snapshots the windows, swap counters and the
//     last shadow-eval verdict — the body of GET /v1/adapt/status.
//
// Feedback may arrive from any number of goroutines; one background
// worker (Start/Close) sweeps the windows, or callers drive Sweep
// synchronously (the online-adaptation experiment does).
package adapt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// ErrNoPlan marks a feedback whose fingerprint has no retained plan —
// the prediction was never made here, or its cache entry was evicted.
var ErrNoPlan = errors.New("adapt: no cached plan for fingerprint")

// Config sizes a Loop. Zero values select the defaults.
type Config struct {
	// Model names the estimator to adapt. It must be attached to the
	// session and implement costmodel.Tuner (checked at New).
	Model string
	// WindowSize bounds each database's feedback ring buffer (default
	// 256). When the buffer is full, the oldest sample is overwritten.
	WindowSize int
	// MinSamples is the fewest buffered samples an adaptation will
	// fine-tune on (default 32): below it, even a drifting window waits
	// for more evidence.
	MinSamples int
	// FreshTrigger forces an adaptation once this many samples are
	// buffered even without drift (default WindowSize) — steady feedback
	// on a well-predicted database still refreshes the model eventually.
	FreshTrigger int
	// DriftMedian is the sliding-window median q-error that trips an
	// adaptation (default 1.5); a p95 at driftP95 trips one too.
	DriftMedian float64
	// HoldoutEvery holds out every k-th buffered sample from fine-tuning
	// for the shadow evaluation (default 4, i.e. a 25% holdout).
	HoldoutEvery int
	// Epochs is the fine-tune's epoch count (default 8). It runs at the
	// adapter's reduced-rate default learning rate.
	Epochs int
	// Interval is the background worker's sweep period (default 500ms).
	Interval time.Duration
	// Backoff is how long a database sits out after a rejected swap
	// (default 30s) — a fine-tune that made things worse should not
	// immediately burn CPU trying again on similar data.
	Backoff time.Duration
	// OnAccept, when set, fires after every accepted hot-swap with the
	// published clone, the shadow-eval verdict that accepted it, and the
	// size of the drained window it fine-tuned on. This is the bundle
	// publisher's hook: an accepted adaptation becomes a fleet-wide
	// bundle revision. The callback runs on the sweep goroutine after
	// the swap is already live — it must not block for long, and its
	// failures are its own to record (a publish error must not undo a
	// locally accepted swap).
	OnAccept func(ctx context.Context, est costmodel.Estimator, eval ShadowEval, samples int)
	// Events, when non-nil, receives the loop's control-plane decisions
	// (drift triggers, swap accepts/rejects) with Origin as the
	// recording origin (e.g. the replica name). Nil disables.
	Events *obs.Log
	Origin string
}

// driftP95 is the sliding-window p95 q-error that trips an adaptation.
const driftP95 = 3.0

func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 256
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 32
	}
	if c.MinSamples > c.WindowSize {
		c.MinSamples = c.WindowSize
	}
	if c.FreshTrigger <= 0 || c.FreshTrigger > c.WindowSize {
		c.FreshTrigger = c.WindowSize
	}
	if c.DriftMedian <= 0 {
		c.DriftMedian = 1.5
	}
	if c.HoldoutEvery <= 1 {
		c.HoldoutEvery = 4
	}
	// A drained window must always split into a non-empty train and
	// holdout: with n >= HoldoutEvery >= 2, split yields at least one of
	// each.
	if c.MinSamples < c.HoldoutEvery {
		c.MinSamples = c.HoldoutEvery
	}
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Backoff <= 0 {
		c.Backoff = 30 * time.Second
	}
	return c
}

// dbWindow is one database's bounded feedback buffer plus its drift
// monitor. Samples form a ring (oldest overwritten when full); the
// q-error Window slides alongside and resets on drain so post-swap drift
// is measured against the new generation.
type dbWindow struct {
	samples []costmodel.Sample
	next    int
	filled  int
	total   int64
	qerr    *metrics.Window
	backoff time.Time
	// rejections counts this database's shadow-eval rejections — the
	// signal that separates "no drift" from "drifting but every
	// candidate got rejected".
	rejections int64
}

func (w *dbWindow) add(s costmodel.Sample, q float64) {
	w.samples[w.next] = s
	w.next = (w.next + 1) % len(w.samples)
	if w.filled < len(w.samples) {
		w.filled++
	}
	w.total++
	w.qerr.Observe(q)
}

// contents returns the buffered samples in insertion order, without
// consuming them — the buffer is only consumed (dropOldest) once an
// adaptation cycle over the snapshot completes, so a failed cycle
// cannot evaporate a window of joined feedback.
func (w *dbWindow) contents() []costmodel.Sample {
	out := make([]costmodel.Sample, 0, w.filled)
	start := w.next - w.filled
	for i := 0; i < w.filled; i++ {
		out = append(out, w.samples[(start+i+len(w.samples))%len(w.samples)])
	}
	return out
}

// consume drops the snapshotted samples still buffered after an
// adaptation cycle and resets the drift window — post-cycle drift is
// measured against the current generation. arrived counts the feedback
// ingested since the snapshot: those samples first fill the ring's free
// space and then overwrite the oldest (snapshotted) entries, so only
// the snapshot's survivors are dropped — feedback that raced the
// fine-tune always stays buffered.
func (w *dbWindow) consume(snapLen, arrived int) {
	overwritten := arrived - (len(w.samples) - snapLen)
	if overwritten < 0 {
		overwritten = 0
	}
	if overwritten > snapLen {
		overwritten = snapLen
	}
	n := snapLen - overwritten
	if n > w.filled {
		n = w.filled
	}
	w.filled -= n
	w.qerr.Reset()
}

// Loop is the continuous-adaptation controller for one model over all of
// a session's databases. Safe for concurrent use.
type Loop struct {
	cfg  Config
	sess *serving.Session

	// mu guards the windows, the last sweep error, and the telemetry of
	// the last verdict and the last fine-tune.
	mu      sync.Mutex
	windows map[string]*dbWindow
	lastErr string

	lastShadow *ShadowEval
	// lastRejected survives later accepts: lastShadow always shows the
	// most recent verdict of either kind, lastRejected pins the most
	// recent rejection so an operator can still see what was refused and
	// by how much after a subsequent swap lands.
	lastRejected *ShadowEval
	lastSwap     time.Time
	// Fine-tune telemetry: when the most recent background fine-tune
	// ran, how long it took, its training throughput, and the tail of its
	// epoch-loss curve.
	lastFineTune time.Time
	ftWall       time.Duration
	ftRate       float64
	ftLossTail   []float64

	// sweepMu serializes adaptation cycles: the background worker and
	// explicit Sweep callers must not fine-tune concurrently.
	sweepMu sync.Mutex

	feedback   metrics.Counter
	joinMisses metrics.Counter
	sweeps     metrics.Counter
	accepted   metrics.Counter
	rejected   metrics.Counter

	// bgCtx is the one stop signal: Close cancels it, which ends the
	// background worker and its in-flight adaptation cycle, so a long
	// fine-tune aborts at the next minibatch boundary instead of pinning
	// shutdown.
	bgCtx    context.Context
	bgCancel context.CancelFunc

	startOnce sync.Once
	done      chan struct{}
}

// New validates that the configured model is attached and adaptable
// (a costmodel.Tuner) and returns a Loop. The worker is not running
// yet: call Start for the background loop, or drive Sweep directly.
func New(sess *serving.Session, cfg Config) (*Loop, error) {
	if sess == nil {
		return nil, fmt.Errorf("adapt: New needs a session")
	}
	cfg = cfg.withDefaults()
	est, err := sess.Model(cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	if _, ok := est.(costmodel.Tuner); !ok {
		return nil, fmt.Errorf("adapt: model %q cannot be adapted online: no Clone and FineTune support", est.Name())
	}
	if cfg.Model == "" {
		// Pin the resolved name so later lookups stay unambiguous even if
		// more models attach.
		cfg.Model = est.Name()
	}
	bgCtx, bgCancel := context.WithCancel(context.Background())
	return &Loop{
		cfg:      cfg,
		sess:     sess,
		windows:  map[string]*dbWindow{},
		bgCtx:    bgCtx,
		bgCancel: bgCancel,
		done:     make(chan struct{}),
	}, nil
}

// Feedback ingests one observed runtime: the fingerprint joins against
// the database's retained plan, the serving generation's prediction
// yields the q-error for the drift monitor, and the (plan, runtime) pair
// is buffered as a fine-tuning sample.
func (l *Loop) Feedback(ctx context.Context, db, fingerprint string, actualSec float64) error {
	if actualSec <= 0 {
		return fmt.Errorf("adapt: actual runtime must be positive, got %v", actualSec)
	}
	if fingerprint == "" {
		return fmt.Errorf("adapt: feedback needs a fingerprint")
	}
	in, ok, err := l.sess.CachedPlan(db, fingerprint)
	if err != nil {
		return err
	}
	if !ok {
		l.joinMisses.Inc()
		return fmt.Errorf("%w: %q on %q (predict it first, or its cache entry was evicted)", ErrNoPlan, fingerprint, db)
	}
	est, err := l.sess.Model(l.cfg.Model)
	if err != nil {
		return err
	}
	pred, err := est.PredictBatch(ctx, []costmodel.PlanInput{in})
	if err != nil {
		return err
	}
	q := metrics.QError(pred[0], actualSec)
	l.mu.Lock()
	w := l.windows[db]
	if w == nil {
		w = &dbWindow{
			samples: make([]costmodel.Sample, l.cfg.WindowSize),
			qerr:    metrics.NewWindow(l.cfg.WindowSize),
		}
		l.windows[db] = w
	}
	w.add(costmodel.Sample{PlanInput: in, RuntimeSec: actualSec}, q)
	l.mu.Unlock()
	l.feedback.Inc()
	return nil
}

// triggered reports whether a window should adapt now; callers hold l.mu.
func (l *Loop) triggered(w *dbWindow, now time.Time) bool {
	if now.Before(w.backoff) || w.filled < l.cfg.MinSamples {
		return false
	}
	if w.filled >= l.cfg.FreshTrigger {
		return true
	}
	s := w.qerr.Snapshot()
	return s.P50 >= l.cfg.DriftMedian || s.P95 >= driftP95
}

// Sweep runs one adaptation cycle: every database whose window has
// tripped drains its buffer and fine-tunes. It returns how many swaps
// were accepted and rejected. Sweeps serialize — concurrent callers
// queue behind the in-flight cycle.
func (l *Loop) Sweep(ctx context.Context) (accepted, rejected int) {
	l.sweepMu.Lock()
	defer l.sweepMu.Unlock()
	l.sweeps.Inc()
	now := time.Now()
	type snapshot struct {
		db      string
		samples []costmodel.Sample
		total   int64 // w.total at snapshot time, to count mid-cycle arrivals
	}
	var work []snapshot
	l.mu.Lock()
	for db, w := range l.windows {
		if l.triggered(w, now) {
			work = append(work, snapshot{db: db, samples: w.contents(), total: w.total})
		}
	}
	l.mu.Unlock()
	for _, d := range work {
		l.cfg.Events.Record(obs.EventDriftTriggered, l.cfg.Origin, map[string]string{
			"db": d.db, "model": l.cfg.Model, "samples": strconv.Itoa(len(d.samples)),
		})
	}
	var sweepErrs []string
	for _, d := range work {
		ok, err := l.adaptOne(ctx, d.db, d.samples)
		l.mu.Lock()
		w := l.windows[d.db]
		switch {
		case err != nil:
			// The cycle failed (not a rejection): the buffer is untouched
			// — the evidence survives — and the database backs off so a
			// persistent failure cannot hot-loop.
			sweepErrs = append(sweepErrs, fmt.Sprintf("%s: %v", d.db, err))
			if w != nil {
				w.backoff = time.Now().Add(l.cfg.Backoff)
			}
		default:
			if w != nil {
				w.consume(len(d.samples), int(w.total-d.total))
				if !ok {
					// Rejected by the shadow eval: similar data would
					// fine-tune to a similar rejection — sit out, and
					// count the rejection against this database.
					w.backoff = time.Now().Add(l.cfg.Backoff)
					w.rejections++
				}
			}
		}
		l.mu.Unlock()
		if err != nil {
			continue
		}
		if ok {
			accepted++
		} else {
			rejected++
		}
	}
	if len(work) > 0 {
		// One verdict per sweep that attempted anything: the joined
		// failures, or a clean slate — a success on one database must not
		// erase another's failure from the same sweep.
		l.mu.Lock()
		l.lastErr = strings.Join(sweepErrs, "; ")
		l.mu.Unlock()
	}
	return accepted, rejected
}

// adaptOne fine-tunes a clone on one database's drained window and
// publishes it only if it beats the serving generation on the holdout.
func (l *Loop) adaptOne(ctx context.Context, db string, samples []costmodel.Sample) (bool, error) {
	est, err := l.sess.Model(l.cfg.Model)
	if err != nil {
		return false, err
	}
	train, holdout := split(samples, l.cfg.HoldoutEvery)
	if len(train) == 0 || len(holdout) == 0 {
		return false, fmt.Errorf("window of %d cannot split train/holdout", len(samples))
	}
	tuner, ok := est.(costmodel.Tuner)
	if !ok {
		return false, fmt.Errorf("model %q can no longer be adapted online", l.cfg.Model)
	}
	clone := tuner.Clone()
	l.cfg.Events.Record(obs.EventFineTuneStarted, l.cfg.Origin, map[string]string{
		"db": db, "model": l.cfg.Model, "samples": strconv.Itoa(len(train)),
	})
	ftStart := time.Now()
	report, err := clone.FineTune(ctx, train, l.cfg.Epochs, 0)
	ftWall := time.Since(ftStart)
	if err != nil {
		return false, err
	}
	// Prefer the estimator's own wall-time/throughput (the training loop
	// measured without the encode stage) and fall back to the measured
	// envelope for estimators that don't report it.
	if report.WallTime > 0 {
		ftWall = report.WallTime
	}
	ftRate := report.SamplesPerSec
	if ftRate == 0 && ftWall > 0 {
		ftRate = float64(len(train)*l.cfg.Epochs) / ftWall.Seconds()
	}
	lossTail := report.EpochLoss
	if len(lossTail) > 3 {
		lossTail = lossTail[len(lossTail)-3:]
	}
	ftFields := map[string]string{
		"db":              db,
		"model":           l.cfg.Model,
		"samples":         strconv.Itoa(len(train)),
		"duration_ms":     strconv.FormatInt(ftWall.Milliseconds(), 10),
		"samples_per_sec": strconv.FormatFloat(ftRate, 'f', 0, 64),
	}
	for i, v := range lossTail {
		ftFields[fmt.Sprintf("loss_tail_%d", i)] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	l.cfg.Events.Record(obs.EventFineTuneFinished, l.cfg.Origin, ftFields)
	l.mu.Lock()
	l.lastFineTune = ftStart
	l.ftWall = ftWall
	l.ftRate = ftRate
	l.ftLossTail = append([]float64(nil), lossTail...)
	l.mu.Unlock()
	oldMed, err := medianQError(ctx, est, holdout)
	if err != nil {
		return false, err
	}
	newMed, err := medianQError(ctx, clone, holdout)
	if err != nil {
		return false, err
	}
	eval := &ShadowEval{
		Database:  db,
		OldMedian: oldMed,
		NewMedian: newMed,
		Holdout:   len(holdout),
		Accepted:  newMed < oldMed,
		At:        time.Now(),
	}
	if eval.Accepted {
		if err := l.sess.AttachModel(clone); err != nil {
			return false, err
		}
		l.accepted.Inc()
	} else {
		l.rejected.Inc()
	}
	typ := obs.EventSwapRejected
	if eval.Accepted {
		typ = obs.EventSwapAccepted
	}
	l.cfg.Events.Record(typ, l.cfg.Origin, map[string]string{
		"db":         db,
		"model":      l.cfg.Model,
		"old_median": strconv.FormatFloat(oldMed, 'g', 4, 64),
		"new_median": strconv.FormatFloat(newMed, 'g', 4, 64),
	})
	l.mu.Lock()
	if eval.Accepted {
		l.lastSwap = eval.At
	} else {
		c := *eval
		l.lastRejected = &c
	}
	l.lastShadow = eval
	l.mu.Unlock()
	if eval.Accepted && l.cfg.OnAccept != nil {
		l.cfg.OnAccept(ctx, clone, *eval, len(samples))
	}
	return eval.Accepted, nil
}

// split carves every k-th sample out as the holdout, the rest as the
// fine-tuning set. Deterministic, so a rejected swap and its retry see
// the same partition of identical data.
func split(samples []costmodel.Sample, k int) (train, holdout []costmodel.Sample) {
	for i, s := range samples {
		if (i+1)%k == 0 {
			holdout = append(holdout, s)
		} else {
			train = append(train, s)
		}
	}
	return train, holdout
}

// medianQError shadow-evaluates one estimator on a holdout slice. The
// whole holdout drains through PredictBatch, so a fusing estimator
// (costmodel.Fused) prices it in one fused forward pass — background
// shadow evaluation steals as little serving CPU as possible.
func medianQError(ctx context.Context, est costmodel.Estimator, holdout []costmodel.Sample) (float64, error) {
	preds, err := est.PredictBatch(ctx, costmodel.Inputs(holdout))
	if err != nil {
		return 0, err
	}
	qs := make([]float64, len(preds))
	for i, p := range preds {
		qs[i] = metrics.QError(p, holdout[i].RuntimeSec)
	}
	return metrics.Median(qs), nil
}

// Start launches the background worker that sweeps windows every
// Interval. Idempotent; pair with Close.
func (l *Loop) Start() {
	l.startOnce.Do(func() {
		go func() {
			defer close(l.done)
			t := time.NewTicker(l.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-l.bgCtx.Done():
					return
				case <-t.C:
					l.Sweep(l.bgCtx)
				}
			}
		}()
	})
}

// Close stops the background worker and waits for any in-flight
// adaptation cycle to finish; the cycle's fine-tune is canceled and
// aborts at its next minibatch boundary, so a drain never waits out a
// full training run. Safe to call without Start and idempotent.
func (l *Loop) Close() {
	l.bgCancel()
	l.startOnce.Do(func() { close(l.done) }) // never started: unblock the wait
	<-l.done
}

// ShadowEval is one old-vs-new holdout comparison — the verdict that
// accepted or rejected a fine-tuned clone.
type ShadowEval struct {
	Database  string    `json:"db"`
	OldMedian float64   `json:"old_median_qerror"`
	NewMedian float64   `json:"new_median_qerror"`
	Holdout   int       `json:"holdout"`
	Accepted  bool      `json:"accepted"`
	At        time.Time `json:"at"`
}

// WindowStatus is one database's feedback-window view.
type WindowStatus struct {
	Database string `json:"db"`
	// Total counts every feedback ever ingested for this database;
	// Pending is the currently buffered (not yet drained) sample count.
	Total   int64 `json:"feedback_total"`
	Pending int   `json:"pending"`
	// QError summarizes the sliding drift window (since the last drain).
	QError metrics.WindowSummary `json:"qerror"`
	// Rejections counts shadow-eval rejections for this database: a
	// drifting window with a climbing rejection count means candidates
	// are being produced but none beat the serving generation.
	Rejections int64 `json:"rejections"`
	// InBackoff reports the database is sitting out after a rejected
	// swap.
	InBackoff bool `json:"in_backoff"`
}

// Status is the observability snapshot behind GET /v1/adapt/status.
type Status struct {
	Model         string    `json:"model"`
	Feedback      int64     `json:"feedback"`
	JoinMisses    int64     `json:"join_misses"`
	Sweeps        int64     `json:"sweeps"`
	SwapsAccepted int64     `json:"swaps_accepted"`
	SwapsRejected int64     `json:"swaps_rejected"`
	LastSwap      time.Time `json:"last_swap"`
	// LastFineTune* surface the most recent background fine-tune — when
	// it started, its wall-clock duration, its training throughput, and
	// the tail of its epoch-loss curve — so an operator can see how
	// stale the served model can get during drift without grepping logs.
	LastFineTune          time.Time   `json:"last_finetune,omitempty"`
	LastFineTuneSec       float64     `json:"last_finetune_sec,omitempty"`
	FineTuneSamplesPerSec float64     `json:"finetune_samples_per_sec,omitempty"`
	LastFineTuneLossTail  []float64   `json:"last_finetune_loss_tail,omitempty"`
	LastShadow            *ShadowEval `json:"last_shadow,omitempty"`
	// LastRejected is the most recent rejected verdict, kept even after
	// later accepted swaps overwrite LastShadow.
	LastRejected *ShadowEval    `json:"last_rejected,omitempty"`
	LastError    string         `json:"last_error,omitempty"`
	Windows      []WindowStatus `json:"windows,omitempty"`
}

// Status snapshots the loop.
func (l *Loop) Status() Status {
	st := Status{
		Model:         l.cfg.Model,
		Feedback:      l.feedback.Value(),
		JoinMisses:    l.joinMisses.Value(),
		Sweeps:        l.sweeps.Value(),
		SwapsAccepted: l.accepted.Value(),
		SwapsRejected: l.rejected.Value(),
	}
	now := time.Now()
	l.mu.Lock()
	st.LastSwap = l.lastSwap
	st.LastFineTune = l.lastFineTune
	st.LastFineTuneSec = l.ftWall.Seconds()
	st.FineTuneSamplesPerSec = l.ftRate
	st.LastFineTuneLossTail = append([]float64(nil), l.ftLossTail...)
	if l.lastShadow != nil {
		c := *l.lastShadow
		st.LastShadow = &c
	}
	if l.lastRejected != nil {
		c := *l.lastRejected
		st.LastRejected = &c
	}
	st.LastError = l.lastErr
	for db, w := range l.windows {
		st.Windows = append(st.Windows, WindowStatus{
			Database:   db,
			Total:      w.total,
			Pending:    w.filled,
			QError:     w.qerr.Snapshot(),
			Rejections: w.rejections,
			InBackoff:  now.Before(w.backoff),
		})
	}
	l.mu.Unlock()
	sort.Slice(st.Windows, func(i, j int) bool { return st.Windows[i].Database < st.Windows[j].Database })
	return st
}
