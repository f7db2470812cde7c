package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
)

// TestRouterFailoverUnderConcurrentTraffic is the cluster-layer
// extension of the adaptation subsystem's hot-swap -race e2e: real
// serving sessions as replicas, concurrent predict AND feedback
// traffic, while a chaos goroutine repeatedly crashes one replica
// (closing its live session mid-traffic), deregisters it, rebuilds it,
// and re-registers it. Run under -race in CI. The bar:
//
//   - no predict may fail — the two stable replicas mirror every
//     database, so failover must always find a path;
//   - feedback may only fail with the benign request-level kinds
//     (ErrNoPlan when the plan-cache entry lives on another replica or
//     was evicted) — never with a routing loss;
//   - the router's counters and health marks stay coherent (snapshot
//     races would trip the race detector).
func TestRouterFailoverUnderConcurrentTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	f := fixtures(t)
	router := NewRouter(Config{})
	defer router.Close()
	// Three replicas: v0 and v1 are stable, "chaos" crashes and
	// resurrects throughout the run.
	for _, name := range []string{"v0", "v1"} {
		if err := router.Register(newReplica(t, name, true)); err != nil {
			t.Fatal(err)
		}
	}
	chaos := newReplica(t, "chaos", true)
	if err := router.Register(chaos); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var stop atomic.Bool
	var predictErrs, feedbackHardErrs atomic.Int64
	var firstErr atomic.Value

	dbNames := make([]string, 0, len(f.dbs))
	for name := range f.dbs {
		dbNames = append(dbNames, name)
	}

	var wg sync.WaitGroup
	// Predict hammer: 6 goroutines cycling through both databases.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				db := dbNames[(g+i)%len(dbNames)]
				sqls := f.sqls[db]
				_, err := router.Predict(ctx, db, "fake", sqls[i%len(sqls)])
				if err != nil {
					predictErrs.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("predict %s: %w", db, err))
				}
			}
		}(g)
	}
	// Feedback hammer: 3 goroutines echoing plausible runtimes by raw
	// fingerprint. Join misses (ErrNoPlan) are expected — the plan may
	// be cached on a different replica than the one owning the db this
	// instant, or not predicted yet — but routing-level failures are not.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				db := dbNames[(g+i)%len(dbNames)]
				sqls := f.sqls[db]
				fp := fingerprintOf(sqls[i%len(sqls)])
				err := router.Feedback(ctx, db, fp, 0.05)
				if err != nil && !errIsAny(err, adapt.ErrNoPlan, ErrNoFeedback) {
					feedbackHardErrs.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("feedback %s: %w", db, err))
				}
			}
		}(g)
	}
	// Stats reader: exercises the aggregation path against the torn-read
	// fix while topology churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if st, err := router.Stats(ctx); err == nil {
				for _, rs := range st.Replicas {
					if rs.Serving != nil && len(rs.Serving.Models) > 0 {
						for _, m := range rs.Serving.Models {
							if m.Generation < 1 {
								firstErr.CompareAndSwap(nil,
									fmt.Errorf("replica %s model %s with generation %d", rs.Name, m.Name, m.Generation))
							}
						}
					}
				}
			}
		}
	}()
	// Chaos: crash the replica (Close its session mid-traffic), yank it
	// from the ring, rebuild, re-register, re-probe. 5 cycles.
	for cycle := 0; cycle < 5; cycle++ {
		chaos.Session.Close()
		router.CheckHealth(ctx)
		if _, ok := router.Deregister("chaos"); !ok {
			t.Error("chaos replica vanished from the router")
		}
		chaos = newReplica(t, "chaos", true)
		if err := router.Register(chaos); err != nil {
			t.Errorf("re-register chaos: %v", err)
			break
		}
		router.CheckHealth(ctx)
	}
	stop.Store(true)
	wg.Wait()

	if n := predictErrs.Load(); n > 0 {
		t.Fatalf("%d predicts failed during failover churn; first: %v", n, firstErr.Load())
	}
	if n := feedbackHardErrs.Load(); n > 0 {
		t.Fatalf("%d feedbacks failed with routing-level errors; first: %v", n, firstErr.Load())
	}
	st, err := router.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 {
		t.Fatal("no requests recorded; the hammers never ran")
	}
}

// fingerprintOf avoids importing costmodel twice in this file's hot
// loop helpers.
func fingerprintOf(sql string) string { return fakePrediction("", "", sql).Fingerprint }

// TestFeedbackFailsOverOnPlanMiss pins the review finding: a feedback
// whose fingerprint misses the owner's plan cache must walk the ring to
// the replica that served (and retained) the plan, exactly as the HTTP
// backend does when a remote 404s the join.
func TestFeedbackFailsOverOnPlanMiss(t *testing.T) {
	f := fixtures(t)
	router := NewRouter(Config{})
	defer router.Close()
	a := newReplica(t, "a", true)
	b := newReplica(t, "b", true)
	for _, rep := range []*InProcess{a, b} {
		if err := router.Register(rep); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	const db = "imdb"
	sql := f.sqls[db][0]
	// Plant the plan on the NON-owner only: predict through that
	// replica's session directly, bypassing the router.
	owner := router.Owner(db)
	holder := a
	if owner == "a" {
		holder = b
	}
	pred, err := holder.Session.Predict(ctx, db, "fake", sql)
	if err != nil {
		t.Fatal(err)
	}
	// Routed feedback goes owner-first; the owner's join misses
	// (ErrNoPlan → not-found class) and the walk reaches the holder.
	if err := router.Feedback(ctx, db, pred.Fingerprint, 0.2); err != nil {
		t.Fatalf("feedback did not fail over past the owner's plan miss: %v", err)
	}
	if got := holder.Loop().Status().Feedback; got != 1 {
		t.Fatalf("holder ingested %d feedbacks, want 1", got)
	}
	// A fingerprint cached nowhere still ends as the not-found class
	// wrapping ErrNoPlan — never a fake outage.
	err = router.Feedback(ctx, db, "no-such-fingerprint", 0.2)
	if !errors.Is(err, adapt.ErrNoPlan) || errors.Is(err, ErrNoReplica) {
		t.Fatalf("nowhere-cached feedback error = %v, want ErrNoPlan without ErrNoReplica", err)
	}
}

// TestRouterFailsOverPastClosedSession pins how the router reads an
// in-process replica shutting down, which the chaos cycle above relies
// on: the replica passes serving.ErrClosed through untouched, and the
// router takes it for a crash, not for the request's fault. The request
// fails over to the successor and the closed replica is marked
// unhealthy; with every replica closed the request runs out of
// candidates.
func TestRouterFailsOverPastClosedSession(t *testing.T) {
	f := fixtures(t)
	router := NewRouter(Config{})
	defer router.Close()
	reps := map[string]*InProcess{}
	for _, name := range []string{"a", "b"} {
		reps[name] = newReplica(t, name, false)
		if err := router.Register(reps[name]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	const db = "imdb"
	sql := f.sqls[db][0]
	route := router.Route(db)
	owner, successor := route[0], route[1]
	reps[owner].Session.Close()
	if _, err := router.Predict(ctx, db, "fake", sql); err != nil {
		t.Fatalf("predict with the owner's session closed: %v", err)
	}
	if router.Healthy()[owner] {
		t.Fatalf("closed owner %s still marked healthy", owner)
	}
	st, err := router.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range st.Replicas {
		if rs.Name == successor && (rs.Served != 1 || rs.Rescued != 1) {
			t.Fatalf("successor %s served %d, rescued %d; want 1 and 1", successor, rs.Served, rs.Rescued)
		}
	}
	reps[successor].Session.Close()
	if _, err := router.Predict(ctx, db, "fake", sql); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("predict with every session closed = %v, want ErrNoReplica", err)
	}
}
