package main

import (
	"context"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/cluster/sim"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// TestBundleFleetAdaptConvergeFailoverRollback is E11: three real
// serving replicas behind the deterministic fault harness, adaptation
// accepted on the owning replica, and the bundle tier carrying the
// result fleet-wide. It pins, in order:
//
//  1. an accepted fine-tune on the owner publishes a new store revision,
//  2. every replica converges onto it within one poll round,
//  3. a failover after convergence serves the ADAPTED generation
//     (bitwise — the harness's consistency invariant does the check),
//  4. `zsdb bundle rollback` restores the prior generation fleet-wide,
//
// with zero lost requests and zero invariant violations end to end.
func TestBundleFleetAdaptConvergeFailoverRollback(t *testing.T) {
	f := sharedServeFixture(t)
	ctx := context.Background()
	storeDir := t.TempDir()
	bf := bundleFlags{dir: storeDir, poll: time.Hour, retain: bundle.DefaultRetain}

	boot := &cmdScaleEstimator{Scale: 1}
	bc, err := bf.newControl([]costmodel.Estimator{boot}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bc.close)

	sessions := map[string]*serving.Session{}
	loops := map[string]*adapt.Loop{}
	cfg := sim.Config{
		Replicas:  3,
		Databases: []string{"imdb"},
		Model:     cmdScaleName,
		Requests:  90,
		Seed:      11,
		// Every 2nd success reports an actual runtime 1.5× the prediction
		// (the harness's drift injection) — the owner's window trips.
		FeedbackEvery: 2,
		CallTimeout:   2 * time.Second, // real parse/plan/predict per call
		SlowLatency:   5 * time.Second,
		Workload: []string{
			"SELECT COUNT(*) FROM title",
			"SELECT COUNT(*) FROM movie_companies",
			"SELECT COUNT(*) FROM movie_companies, title WHERE movie_companies.movie_id = title.id",
			"SELECT SUM(title.production_year) FROM title WHERE title.production_year > 20",
		},
		NewBackend: func(name string) (cluster.Backend, error) {
			sess := serving.NewSession(serving.Config{})
			if err := sess.AttachDatabase("imdb", f.imdb); err != nil {
				return nil, err
			}
			if err := sess.AttachModel(&cmdScaleEstimator{Scale: 1}); err != nil {
				return nil, err
			}
			dist, err := bc.attach(name, sess, bf.poll)
			if err != nil {
				return nil, err
			}
			loop, err := adapt.New(sess, adapt.Config{
				Model:        cmdScaleName,
				WindowSize:   64,
				MinSamples:   8,
				DriftMedian:  1.2,
				HoldoutEvery: 2,
				Epochs:       1,
				OnAccept:     bc.onAccept(dist),
			})
			if err != nil {
				return nil, err
			}
			b, err := cluster.NewInProcess(name, sess, loop)
			if err != nil {
				return nil, err
			}
			sessions[name] = sess
			loops[name] = loop
			return b, nil
		},
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Finish(ctx)
	if err := bc.seed(ctx, []costmodel.Estimator{boot}); err != nil {
		t.Fatal(err)
	}

	// Phase 1: clean traffic on the boot generation; drifting feedback
	// accumulates on the replica owning imdb.
	s.Step(ctx, 30)
	owner := s.Router().Owner("imdb")
	if owner == "" {
		t.Fatal("no owner for imdb")
	}

	// The owner's sweep accepts a recalibrated clone and — through the
	// OnAccept hook — publishes it as store revision 2.
	accepted, rejected := loops[owner].Sweep(ctx)
	if accepted != 1 || rejected != 0 {
		t.Fatalf("owner sweep: accepted=%d rejected=%d (status %+v)", accepted, rejected, loops[owner].Status())
	}
	if head, err := bc.store.Latest(ctx); err != nil || head != 2 {
		t.Fatalf("store head after accepted swap = %d (%v), want 2", head, err)
	}
	if got := bc.dists[owner].Revision(); got != 2 {
		t.Fatalf("publishing replica's distributor at revision %d, want 2 (marked, not re-downloaded)", got)
	}
	adaptedScale := mustModelScale(t, sessions[owner])
	if adaptedScale == 1 {
		t.Fatal("owner still serves the boot scale after an accepted swap")
	}

	// Phase 2: one poll round converges every replica onto revision 2,
	// serving the identical adapted parameters.
	s.ResetExpectations() // the generation legitimately changed
	if err := bc.refresh(ctx); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	for name, d := range bc.dists {
		if d.Revision() != 2 {
			t.Fatalf("replica %s at revision %d after one poll, want 2", name, d.Revision())
		}
	}
	for name, sess := range sessions {
		if got := mustModelScale(t, sess); got != adaptedScale {
			t.Fatalf("replica %s serves scale %v, owner published %v", name, got, adaptedScale)
		}
	}

	// Phase 3: traffic on the adapted generation — all replicas answer,
	// bitwise-consistently.
	s.Step(ctx, 30)

	// Phase 4: crash the owner. Failover must serve the ADAPTED
	// generation — the expectations pinned in phase 3 came from the
	// owner, so any stale answer from a successor is a violation.
	if err := s.Fault(ctx, owner, sim.Crash); err != nil {
		t.Fatal(err)
	}
	s.Step(ctx, 15)

	// Phase 5: recover, then roll the whole fleet back with the CLI the
	// operator would use. One poll round restores the boot generation
	// everywhere.
	if err := s.Fault(ctx, owner, sim.Recover); err != nil {
		t.Fatal(err)
	}
	if err := runBundle([]string{"rollback", "-store", storeDir}); err != nil {
		t.Fatalf("zsdb bundle rollback: %v", err)
	}
	if err := bc.refresh(ctx); err != nil {
		t.Fatalf("refresh after rollback: %v", err)
	}
	for name, d := range bc.dists {
		if d.Revision() != 3 {
			t.Fatalf("replica %s at revision %d after rollback, want 3", name, d.Revision())
		}
		man := d.Status().Manifest
		if man == nil || man.RollbackOf != 1 {
			t.Fatalf("replica %s rollback manifest = %+v, want rollback_of 1", name, man)
		}
	}
	for name, sess := range sessions {
		if got := mustModelScale(t, sess); got != 1 {
			t.Fatalf("replica %s serves scale %v after rollback, want the boot scale 1", name, got)
		}
	}

	// Phase 6: traffic on the restored generation, then the verdict:
	// every one of the 90 requests succeeded, nothing was lost, no
	// invariant broke anywhere along the way.
	s.ResetExpectations()
	s.Step(ctx, 15)
	res := s.Finish(ctx)
	for _, v := range res.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if res.FailedLost != 0 || res.FailedExpected != 0 || res.Succeeded != 90 {
		t.Fatalf("succeeded=%d lost=%d expected-failures=%d, want 90/0/0",
			res.Succeeded, res.FailedLost, res.FailedExpected)
	}
	if res.FeedbackSent == 0 {
		t.Fatal("no feedback flowed — the adaptation path was not exercised")
	}
}

// mustModelScale reads the serving scale of the test estimator — the
// one float that identifies a generation bitwise.
func mustModelScale(t *testing.T, sess *serving.Session) float64 {
	t.Helper()
	est, err := sess.Model(cmdScaleName)
	if err != nil {
		t.Fatal(err)
	}
	se, ok := est.(*cmdScaleEstimator)
	if !ok {
		t.Fatalf("model %s is %T, want *cmdScaleEstimator", cmdScaleName, est)
	}
	return se.Scale
}
