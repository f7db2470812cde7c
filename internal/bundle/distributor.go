package bundle

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/obs"
)

// Activator is the activation sink — satisfied by *serving.Session,
// whose AttachModel is the hot-swap path (generation bump, scheduler
// flush-time lookup). Declared here so this package does not import
// serving.
type Activator interface {
	AttachModel(est costmodel.Estimator) error
}

// DistConfig configures one replica's Distributor.
type DistConfig struct {
	// Store is where bundles are fetched from. Required.
	Store Store
	// Target receives verified estimators. Required.
	Target Activator
	// Estimator is the registry name this distributor accepts; bundles
	// wrapping any other estimator refuse activation. Required.
	Estimator string
	// Interval is the base poll period for Start. Each sleep is jittered
	// ±25% so a fleet of replicas does not stampede the store in
	// lockstep, and the backoff after failures is capped at
	// maxBackoffIntervals of it. Defaults to DefaultInterval.
	Interval time.Duration
	// Now is a test seam; it defaults to time.Now.
	Now func() time.Time
	// Events, when non-nil, receives one bundle activation event per
	// activation with Origin as the recording origin (the replica name).
	// Nil disables.
	Events *obs.Log
	Origin string
}

// DefaultInterval is the poll period when DistConfig leaves it zero.
const DefaultInterval = 3 * time.Second

// maxBackoffIntervals caps the exponential backoff after fetch/verify
// failures, in poll intervals.
const maxBackoffIntervals = 8

// Status is a distributor's observable state, surfaced per replica in
// /v1/stats and /v1/bundles so generation skew across a ring is visible.
type Status struct {
	// Estimator is the accepted registry name.
	Estimator string `json:"estimator"`
	// Revision is the currently activated revision (0 before the first
	// activation).
	Revision int64 `json:"revision"`
	// Polls counts PollOnce calls; Skips those short-circuited by the
	// revision check; Activations successful hot-swaps; Failures
	// fetch/verify/activate errors; Rollbacks those activations whose
	// manifest republishes an older revision (Publisher.Rollback).
	Polls       int64 `json:"polls"`
	Skips       int64 `json:"skips"`
	Activations int64 `json:"activations"`
	Failures    int64 `json:"failures"`
	Rollbacks   int64 `json:"rollbacks"`
	// LastError is the most recent failure, cleared by the next success.
	LastError string `json:"last_error,omitempty"`
	// LastActivated is when the current revision activated.
	LastActivated time.Time `json:"last_activated,omitzero"`
	// BackoffUntil is non-zero while the poll loop is backing off.
	BackoffUntil time.Time `json:"backoff_until,omitzero"`
	// Manifest describes the activated revision, nil before the first.
	Manifest *Manifest `json:"manifest,omitempty"`
}

// Distributor is the per-replica poll/verify/activate client. PollOnce
// is the whole protocol; Start just runs it on a jittered timer.
type Distributor struct {
	cfg DistConfig

	mu        sync.Mutex
	st        Status
	backoff   time.Duration // current backoff step, 0 when healthy
	nextAfter time.Time     // do not poll before this (backoff gate)

	// ctx is the one stop signal: Close cancels it, which ends the poll
	// loop and any poll it has in flight.
	ctx    context.Context
	cancel context.CancelFunc

	startOnce sync.Once
	done      chan struct{}
}

// NewDistributor validates the config and returns an idle distributor —
// call PollOnce directly (tests, deterministic harnesses) or Start for
// the background loop.
func NewDistributor(cfg DistConfig) (*Distributor, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("bundle: distributor needs a store")
	}
	if cfg.Target == nil {
		return nil, fmt.Errorf("bundle: distributor needs an activation target")
	}
	if cfg.Estimator == "" {
		return nil, fmt.Errorf("bundle: distributor needs an estimator name")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Distributor{
		cfg:    cfg,
		st:     Status{Estimator: cfg.Estimator},
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
	}, nil
}

// Status snapshots the distributor's counters and activated revision.
func (d *Distributor) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.st
	if st.Manifest != nil {
		man := *st.Manifest
		st.Manifest = &man
	}
	st.BackoffUntil = d.nextAfter
	return st
}

// MarkActivated records that the target already serves revision man —
// the publishing replica's own accept path activated the model locally
// before the bundle existed, so its distributor must not re-download
// and re-attach (which would bump the serving generation for nothing).
func (d *Distributor) MarkActivated(man Manifest) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if man.Revision <= d.st.Revision {
		return
	}
	m := man
	d.st.Revision = man.Revision
	d.st.Manifest = &m
	d.st.LastActivated = d.cfg.Now()
}

// fail records a failure and advances the exponential backoff gate.
func (d *Distributor) fail(err error) {
	d.st.Failures++
	d.st.LastError = err.Error()
	if d.backoff == 0 {
		d.backoff = d.cfg.Interval
	} else {
		d.backoff *= 2
	}
	if limit := maxBackoffIntervals * d.cfg.Interval; d.backoff > limit {
		d.backoff = limit
	}
	d.nextAfter = d.cfg.Now().Add(d.backoff)
}

// ok clears failure state after any successful poll.
func (d *Distributor) ok() {
	d.st.LastError = ""
	d.backoff = 0
	d.nextAfter = time.Time{}
}

// PollOnce runs one protocol round: check the store head, short-circuit
// if it is not beyond the activated revision, otherwise fetch, verify
// (checksum, loadable payload, estimator-name match, revision match and
// strictly-increasing), and activate via the target's hot-swap.
// Returns whether a new revision activated. While a backoff window from
// a previous failure is open the round is skipped entirely.
func (d *Distributor) PollOnce(ctx context.Context) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	if !d.nextAfter.IsZero() && d.cfg.Now().Before(d.nextAfter) {
		return false, nil
	}
	d.st.Polls++

	head, err := d.cfg.Store.Latest(ctx)
	if err != nil && !errors.Is(err, ErrNotFound) {
		err = fmt.Errorf("bundle: poll store: %w", err)
		d.fail(err)
		return false, err
	}
	if err != nil || head <= d.st.Revision {
		// Empty store (nothing published yet is a healthy state), or the
		// ETag idiom: the head has not moved past us, skip the fetch.
		d.st.Skips++
		d.ok()
		return false, nil
	}

	man, err := d.activateLocked(ctx, head)
	if err != nil {
		d.fail(err)
		return false, err
	}
	d.st.Revision = man.Revision
	d.st.Manifest = &man
	d.st.LastActivated = d.cfg.Now()
	d.st.Activations++
	if man.RollbackOf != 0 {
		d.st.Rollbacks++
	}
	d.ok()
	d.cfg.Events.Record(obs.EventBundleActivated, d.cfg.Origin, map[string]string{
		"revision":  strconv.FormatInt(man.Revision, 10),
		"estimator": man.Estimator,
	})
	return true, nil
}

// activateLocked fetches, verifies, and attaches one revision. The
// caller holds d.mu. Verification failures leave the serving generation
// untouched: AttachModel only runs after every check passes.
func (d *Distributor) activateLocked(ctx context.Context, revision int64) (Manifest, error) {
	rc, err := d.cfg.Store.Fetch(ctx, revision)
	if err != nil {
		return Manifest{}, fmt.Errorf("bundle: fetch revision %d: %w", revision, err)
	}
	b, err := Open(rc)
	rc.Close() // only read, and Open has verified every byte it needs
	if err != nil {
		return Manifest{}, fmt.Errorf("revision %d: %w", revision, err)
	}
	if b.Manifest.Revision != revision {
		return Manifest{}, badf("store revision %d holds manifest revision %d", revision, b.Manifest.Revision)
	}
	if b.Manifest.Estimator != d.cfg.Estimator {
		return Manifest{}, badf("bundle wraps estimator %q, this replica distributes %q", b.Manifest.Estimator, d.cfg.Estimator)
	}
	if err := d.cfg.Target.AttachModel(b.Estimator); err != nil {
		return Manifest{}, fmt.Errorf("bundle: activate revision %d: %w", revision, err)
	}
	return b.Manifest, nil
}

// Start launches the background poll loop; Close stops it. Each sleep
// is the configured interval jittered ±25% (or the remaining backoff,
// whichever is later).
func (d *Distributor) Start() {
	d.startOnce.Do(func() {
		go d.loop()
	})
}

func (d *Distributor) loop() {
	defer close(d.done)
	for {
		d.mu.Lock()
		sleep := d.jitteredLocked()
		d.mu.Unlock()
		timer := time.NewTimer(sleep)
		select {
		case <-d.ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
		ctx, cancel := context.WithTimeout(d.ctx, d.cfg.Interval)
		_, _ = d.PollOnce(ctx) // errors land in Status.LastError
		cancel()
	}
}

// jitteredLocked computes the next sleep: interval ±25%, extended to
// cover any open backoff window. Caller holds d.mu.
func (d *Distributor) jitteredLocked() time.Duration {
	base := d.cfg.Interval
	jitter := time.Duration((rand.Float64() - 0.5) * 0.5 * float64(base))
	sleep := base + jitter
	if !d.nextAfter.IsZero() {
		if until := d.nextAfter.Sub(d.cfg.Now()); until > sleep {
			sleep = until
		}
	}
	if sleep < time.Millisecond {
		sleep = time.Millisecond
	}
	return sleep
}

// Close stops the background loop (if started) and waits for it; a
// poll in flight is canceled rather than waited out. Safe to call
// without Start and idempotent.
func (d *Distributor) Close() {
	d.cancel()
	d.startOnce.Do(func() { close(d.done) }) // never started: unblock the wait
	<-d.done
}
