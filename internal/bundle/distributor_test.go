package bundle_test

import (
	"context"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
)

// recordingTarget is a fake Activator counting attachments.
type recordingTarget struct {
	mu       sync.Mutex
	attached []costmodel.Estimator
	fail     error
}

func (r *recordingTarget) AttachModel(est costmodel.Estimator) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil {
		return r.fail
	}
	r.attached = append(r.attached, est)
	return nil
}

func (r *recordingTarget) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.attached)
}

func (r *recordingTarget) lastScale() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.attached) == 0 {
		return 0
	}
	return r.attached[len(r.attached)-1].(*scaleEstimator).Scale
}

func newTestDistributor(t *testing.T, st bundle.Store, target bundle.Activator) *bundle.Distributor {
	t.Helper()
	d, err := bundle.NewDistributor(bundle.DistConfig{
		Store:     st,
		Target:    target,
		Estimator: testEstimatorName,
		Interval:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestDistributorValidatesConfig(t *testing.T) {
	st := newDirStore(t)
	target := &recordingTarget{}
	for _, cfg := range []bundle.DistConfig{
		{Target: target, Estimator: "x"},
		{Store: st, Estimator: "x"},
		{Store: st, Target: target},
	} {
		if _, err := bundle.NewDistributor(cfg); err == nil {
			t.Fatalf("NewDistributor(%+v) accepted an incomplete config", cfg)
		}
	}
}

func TestDistributorPollActivatesAndShortCircuits(t *testing.T) {
	ctx := context.Background()
	st := newDirStore(t)
	pub := bundle.NewPublisher(st, 5)
	target := &recordingTarget{}
	d := newTestDistributor(t, st, target)

	// Empty store: healthy no-op.
	if act, err := d.PollOnce(ctx); err != nil || act {
		t.Fatalf("empty poll = %v/%v", act, err)
	}

	if _, err := pub.Publish(ctx, &scaleEstimator{Scale: 2}, bundle.Meta{}); err != nil {
		t.Fatal(err)
	}
	act, err := d.PollOnce(ctx)
	if err != nil || !act {
		t.Fatalf("poll = %v/%v, want activation", act, err)
	}
	if target.count() != 1 || target.lastScale() != 2 {
		t.Fatalf("target saw %d attachments (scale %v), want 1 of scale 2", target.count(), target.lastScale())
	}
	st1 := d.Status()
	if st1.Revision != 1 || st1.Activations != 1 || st1.Manifest == nil {
		t.Fatalf("status = %+v", st1)
	}

	// Head unchanged: the revision short-circuit skips the fetch.
	if act, err := d.PollOnce(ctx); err != nil || act {
		t.Fatalf("repeat poll = %v/%v, want skip", act, err)
	}
	if st2 := d.Status(); st2.Skips < 1 || target.count() != 1 {
		t.Fatalf("short-circuit missing: %+v, %d attachments", st2, target.count())
	}

	// New head: picked up on the next poll.
	if _, err := pub.Publish(ctx, &scaleEstimator{Scale: 3}, bundle.Meta{}); err != nil {
		t.Fatal(err)
	}
	if act, err := d.PollOnce(ctx); err != nil || !act {
		t.Fatalf("poll after publish = %v/%v", act, err)
	}
	if d.Status().Revision != 2 || target.lastScale() != 3 {
		t.Fatalf("revision %d scale %v, want 2 / 3", d.Status().Revision, target.lastScale())
	}
}

// TestDistributorRefusals drives every refusal class through the poll
// path and asserts the target is never touched.
func TestDistributorRefusals(t *testing.T) {
	ctx := context.Background()

	t.Run("corrupt archive", func(t *testing.T) {
		st := newDirStore(t)
		target := &recordingTarget{}
		d := newTestDistributor(t, st, target)
		if err := st.Put(ctx, 1, []byte("garbage")); err != nil {
			t.Fatal(err)
		}
		if _, err := d.PollOnce(ctx); err == nil {
			t.Fatal("corrupt bundle activated")
		}
		if target.count() != 0 || d.Status().Revision != 0 {
			t.Fatalf("corrupt bundle reached the target: %d attachments, rev %d", target.count(), d.Status().Revision)
		}
		if s := d.Status(); s.Failures != 1 || s.LastError == "" {
			t.Fatalf("status = %+v", s)
		}
	})

	t.Run("estimator mismatch", func(t *testing.T) {
		st := newDirStore(t)
		target := &recordingTarget{}
		d, err := bundle.NewDistributor(bundle.DistConfig{
			Store: st, Target: target, Estimator: costmodel.NameScaledCost, Interval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		data, _ := buildBundle(t, &scaleEstimator{Scale: 2}, 1, bundle.Meta{})
		if err := st.Put(ctx, 1, data); err != nil {
			t.Fatal(err)
		}
		_, err = d.PollOnce(ctx)
		if err == nil || !strings.Contains(err.Error(), "this replica distributes") {
			t.Fatalf("err = %v, want estimator-mismatch refusal", err)
		}
		if target.count() != 0 {
			t.Fatal("mismatched bundle reached the target")
		}
	})

	t.Run("revision regression", func(t *testing.T) {
		st := newDirStore(t)
		target := &recordingTarget{}
		d := newTestDistributor(t, st, target)
		// Activated revision 5 already (e.g. via the publisher hook).
		d.MarkActivated(bundle.Manifest{Estimator: testEstimatorName, Revision: 5})
		data, _ := buildBundle(t, &scaleEstimator{Scale: 9}, 3, bundle.Meta{})
		if err := st.Put(ctx, 3, data); err != nil {
			t.Fatal(err)
		}
		// Store head 3 < activated 5: a regression, skipped not activated.
		if act, err := d.PollOnce(ctx); err != nil || act {
			t.Fatalf("regressive poll = %v/%v, want skip", act, err)
		}
		if target.count() != 0 || d.Status().Revision != 5 {
			t.Fatalf("regression activated: %d attachments, rev %d", target.count(), d.Status().Revision)
		}
	})

	t.Run("manifest revision disagrees with store key", func(t *testing.T) {
		st := newDirStore(t)
		target := &recordingTarget{}
		d := newTestDistributor(t, st, target)
		// A bundle claiming revision 1 stored under key 7 — replay of an
		// old artifact at a new position must refuse.
		data, _ := buildBundle(t, &scaleEstimator{Scale: 9}, 1, bundle.Meta{})
		if err := st.Put(ctx, 7, data); err != nil {
			t.Fatal(err)
		}
		_, err := d.PollOnce(ctx)
		if err == nil || !strings.Contains(err.Error(), "holds manifest revision") {
			t.Fatalf("err = %v, want store/manifest revision disagreement", err)
		}
		if target.count() != 0 {
			t.Fatal("replayed bundle reached the target")
		}
	})

	t.Run("activation failure", func(t *testing.T) {
		st := newDirStore(t)
		target := &recordingTarget{fail: context.DeadlineExceeded}
		d := newTestDistributor(t, st, target)
		data, _ := buildBundle(t, &scaleEstimator{Scale: 2}, 1, bundle.Meta{})
		if err := st.Put(ctx, 1, data); err != nil {
			t.Fatal(err)
		}
		if _, err := d.PollOnce(ctx); err == nil {
			t.Fatal("failed activation reported success")
		}
		if d.Status().Revision != 0 {
			t.Fatalf("revision advanced past a failed activation: %d", d.Status().Revision)
		}
	})
}

// TestDistributorBackoff checks the failure gate: after an error the
// next polls inside the backoff window are no-ops, and the window grows
// exponentially up to the cap.
func TestDistributorBackoff(t *testing.T) {
	ctx := context.Background()
	st := newDirStore(t)
	target := &recordingTarget{}

	now := time.Unix(1000, 0)
	d, err := bundle.NewDistributor(bundle.DistConfig{
		Store:     st,
		Target:    target,
		Estimator: testEstimatorName,
		Interval:  time.Second,
		Now:       func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	if err := st.Put(ctx, 1, []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PollOnce(ctx); err == nil {
		t.Fatal("garbage activated")
	}
	st1 := d.Status()
	if st1.BackoffUntil.IsZero() {
		t.Fatalf("no backoff after failure: %+v", st1)
	}
	// Inside the window: skipped without even counting a poll.
	polls := st1.Polls
	if _, err := d.PollOnce(ctx); err != nil {
		t.Fatalf("in-backoff poll errored: %v", err)
	}
	if d.Status().Polls != polls {
		t.Fatal("in-backoff poll was not gated")
	}
	// Past the window: retried, failed again, backoff doubled.
	now = now.Add(1100 * time.Millisecond)
	if _, err := d.PollOnce(ctx); err == nil {
		t.Fatal("garbage activated on retry")
	}
	if until := d.Status().BackoffUntil.Sub(now); until != 2*time.Second {
		t.Fatalf("second backoff = %v, want 2s", until)
	}
	// Three more failures pin at the cap.
	for i := 0; i < 3; i++ {
		now = now.Add(9 * time.Second)
		d.PollOnce(ctx)
	}
	if until := d.Status().BackoffUntil.Sub(now); until != 8*time.Second {
		t.Fatalf("capped backoff = %v, want 8s", until)
	}

	// Replace the garbage with a real head: success clears the backoff.
	if err := st.Delete(ctx, 1); err != nil {
		t.Fatal(err)
	}
	data, _ := buildBundle(t, &scaleEstimator{Scale: 2}, 2, bundle.Meta{})
	if err := st.Put(ctx, 2, data); err != nil {
		t.Fatal(err)
	}
	now = now.Add(9 * time.Second)
	if act, err := d.PollOnce(ctx); err != nil || !act {
		t.Fatalf("recovery poll = %v/%v", act, err)
	}
	if s := d.Status(); !s.BackoffUntil.IsZero() || s.LastError != "" {
		t.Fatalf("backoff not cleared by success: %+v", s)
	}
}

func TestDistributorMarkActivated(t *testing.T) {
	ctx := context.Background()
	st := newDirStore(t)
	pub := bundle.NewPublisher(st, 5)
	target := &recordingTarget{}
	d := newTestDistributor(t, st, target)

	man, err := pub.Publish(ctx, &scaleEstimator{Scale: 2}, bundle.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	// The publishing replica's accept path already attached the model.
	d.MarkActivated(man)
	if act, err := d.PollOnce(ctx); err != nil || act {
		t.Fatalf("poll after MarkActivated = %v/%v, want skip", act, err)
	}
	if target.count() != 0 {
		t.Fatal("marked revision re-activated")
	}
	// Stale marks are ignored.
	d.MarkActivated(bundle.Manifest{Revision: 1})
	if d.Status().Revision != man.Revision {
		t.Fatalf("stale mark regressed revision to %d", d.Status().Revision)
	}
}

// TestDistributorBackgroundLoop smoke-tests Start/Close: a published
// revision is picked up without manual polling.
func TestDistributorBackgroundLoop(t *testing.T) {
	ctx := context.Background()
	st := newDirStore(t)
	pub := bundle.NewPublisher(st, 5)
	target := &recordingTarget{}
	d := newTestDistributor(t, st, target)

	if _, err := pub.Publish(ctx, &scaleEstimator{Scale: 2}, bundle.Meta{}); err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for d.Status().Revision == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d.Status().Revision != 1 {
		t.Fatalf("background loop never activated: %+v", d.Status())
	}
	d.Close()
	d.Close() // idempotent
}

// blockingStore is a DirStore whose Fetch blocks until its ctx ends: a
// poll that reaches it stays in flight until someone cancels it.
type blockingStore struct {
	*bundle.DirStore
	entered chan struct{}
}

func (s *blockingStore) Fetch(ctx context.Context, revision int64) (io.ReadCloser, error) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestDistributorCloseStopsPolling starts the background loop, lets a
// poll enter a Fetch that only returns once its ctx ends, and checks
// Close stops it: Close returns promptly, nothing is attached after
// it, no goroutine the distributor started outlives it, and Close is
// idempotent and safe on a distributor that never started.
func TestDistributorCloseStopsPolling(t *testing.T) {
	ctx := context.Background()
	st := &blockingStore{DirStore: newDirStore(t), entered: make(chan struct{}, 1)}
	if _, err := bundle.NewPublisher(st, 5).Publish(ctx, &scaleEstimator{Scale: 2}, bundle.Meta{}); err != nil {
		t.Fatal(err)
	}
	target := &recordingTarget{}
	newDist := func() *bundle.Distributor {
		d, err := bundle.NewDistributor(bundle.DistConfig{
			Store: st, Target: target, Estimator: testEstimatorName, Interval: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	closeWithin := func(d *bundle.Distributor, what string) {
		t.Helper()
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			d.Close()
		}()
		select {
		case <-closed:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s did not return within 2s", what)
		}
	}

	d := newDist()
	baseline := runtime.NumGoroutine()
	d.Start()
	select {
	case <-st.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the background loop never reached Fetch")
	}
	closeWithin(d, "Close during an in-flight poll")
	time.Sleep(600 * time.Millisecond) // three intervals: a live loop would poll again
	if n := target.count(); n != 0 {
		t.Fatalf("%d attachments after Close, want 0", n)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after Close, %d before Start:\n%s", runtime.NumGoroutine(), baseline, buf)
		}
	}
	closeWithin(d, "a second Close")
	closeWithin(newDist(), "Close on a distributor that never started")
}
