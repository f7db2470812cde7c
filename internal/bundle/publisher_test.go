package bundle_test

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
)

func TestPublisherSequencesAndPrunes(t *testing.T) {
	ctx := context.Background()
	st := newDirStore(t)
	pub := bundle.NewPublisher(st, 3)

	for i := 1; i <= 5; i++ {
		man, err := pub.Publish(ctx, &scaleEstimator{Scale: float64(i)}, bundle.Meta{Samples: i})
		if err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
		if man.Revision != int64(i) {
			t.Fatalf("revision = %d, want %d", man.Revision, i)
		}
	}
	revs, err := st.Revisions(ctx)
	if err != nil || len(revs) != 3 || revs[0] != 3 || revs[2] != 5 {
		t.Fatalf("retained = %v (err %v), want [3 4 5]", revs, err)
	}
	last, ok := pub.Last()
	if !ok || last.Revision != 5 || last.Samples != 5 {
		t.Fatalf("Last = %+v ok=%v", last, ok)
	}
}

func TestPublisherRollbackRepublishes(t *testing.T) {
	ctx := context.Background()
	st := newDirStore(t)
	pub := bundle.NewPublisher(st, 5)

	var wantSHA string
	for i := 1; i <= 3; i++ {
		man, err := pub.Publish(ctx, &scaleEstimator{Scale: float64(i)}, bundle.Meta{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			wantSHA = man.SHA256
		}
	}

	// revision 0 = the one before head: rev 2's payload as new head 4.
	man, err := pub.Rollback(ctx, 0)
	if err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if man.Revision != 4 || man.RollbackOf != 2 || man.RolledBackFrom != 3 {
		t.Fatalf("rollback manifest = %+v, want rev 4 of 2 from 3", man)
	}
	if man.SHA256 != wantSHA {
		t.Fatalf("rollback payload checksum %s != original rev 2 %s", man.SHA256, wantSHA)
	}

	// The republished head verifies and decodes back to rev 2's model.
	rc, err := st.Fetch(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := bundle.Open(rc)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Estimator.(*scaleEstimator).Scale; got != 2 {
		t.Fatalf("rolled-back model scale = %v, want 2", got)
	}

	// Explicit target, validation corners.
	if _, err := pub.Rollback(ctx, 4); err == nil {
		t.Fatal("rollback to head accepted")
	}
	if _, err := pub.Rollback(ctx, 99); err == nil {
		t.Fatal("rollback beyond head accepted")
	}
	if man, err := pub.Rollback(ctx, 1); err != nil || man.RollbackOf != 1 || man.Revision != 5 {
		t.Fatalf("explicit rollback = %+v (err %v)", man, err)
	}
}

func TestPublisherRollbackEmptyAndSingle(t *testing.T) {
	ctx := context.Background()
	st := newDirStore(t)
	pub := bundle.NewPublisher(st, 5)
	if _, err := pub.Rollback(ctx, 0); err == nil {
		t.Fatal("rollback on an empty store accepted")
	}
	if _, err := pub.Publish(ctx, &scaleEstimator{Scale: 1}, bundle.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Rollback(ctx, 0); err == nil {
		t.Fatal("rollback with one retained revision accepted")
	}
}

func TestPublisherResumesFromStoreHead(t *testing.T) {
	// A restarted publisher must continue the sequence, not restart at 1.
	ctx := context.Background()
	st := newDirStore(t)
	if _, err := bundle.NewPublisher(st, 5).Publish(ctx, &scaleEstimator{Scale: 1}, bundle.Meta{}); err != nil {
		t.Fatal(err)
	}
	man, err := bundle.NewPublisher(st, 5).Publish(ctx, &scaleEstimator{Scale: 2}, bundle.Meta{})
	if err != nil || man.Revision != 2 {
		t.Fatalf("second publisher revision = %d (err %v), want 2", man.Revision, err)
	}
}

// TestPublishersRacingLoseNothing runs two publishers over one store for
// 20 rounds, both starting each round at once, so every round races them
// for the same revision. The loser must retry at the new head + 1: all
// 40 publishes land, on revisions 1..40, each holding its own model.
func TestPublishersRacingLoseNothing(t *testing.T) {
	const rounds = 20
	ctx := context.Background()
	st := newDirStore(t)
	pubs := [2]*bundle.Publisher{bundle.NewPublisher(st, 2*rounds), bundle.NewPublisher(st, 2*rounds)}
	stored := map[int64]*scaleEstimator{}
	for r := 0; r < rounds; r++ {
		var mans [2]bundle.Manifest
		var errs [2]error
		ests := [2]*scaleEstimator{{Scale: float64(100 + r)}, {Scale: float64(200 + r)}}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, pub := range pubs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				mans[i], errs[i] = pub.Publish(ctx, ests[i], bundle.Meta{})
			}()
		}
		close(start)
		wg.Wait()
		for i := range pubs {
			if errs[i] != nil {
				t.Fatalf("round %d publisher %d: %v", r, i, errs[i])
			}
			if prev, dup := stored[mans[i].Revision]; dup {
				t.Fatalf("round %d: revision %d claimed by scale %v and %v", r, mans[i].Revision, prev.Scale, ests[i].Scale)
			}
			stored[mans[i].Revision] = ests[i]
		}
	}
	revs, err := st.Revisions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(revs) != 2*rounds || revs[0] != 1 || revs[len(revs)-1] != 2*rounds {
		t.Fatalf("store holds revisions %v, want 1..%d", revs, 2*rounds)
	}
	for _, rev := range revs {
		rc, err := st.Fetch(ctx, rev)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		man, payload := dissect(t, data)
		var want bytes.Buffer
		if err := costmodel.Save(&want, stored[rev]); err != nil {
			t.Fatal(err)
		}
		if man.Revision != rev || !bytes.Equal(payload, want.Bytes()) {
			t.Fatalf("revision %d holds manifest revision %d and a payload that is not scale %v's", rev, man.Revision, stored[rev].Scale)
		}
	}
}

// TestPublisherRollbackRacingPublish runs a rollback on one publisher
// against a publish on another over one store, for 20 rounds, both
// starting each round at once. The rollback must retry at the new head
// + 1 like a publish does: every round lands both, the revisions stay
// dense, and each rollback names the head it actually followed.
func TestPublisherRollbackRacingPublish(t *testing.T) {
	const rounds = 20
	ctx := context.Background()
	st := newDirStore(t)
	pub, back := bundle.NewPublisher(st, 2*rounds+2), bundle.NewPublisher(st, 2*rounds+2)
	for i := 1; i <= 2; i++ {
		if _, err := pub.Publish(ctx, &scaleEstimator{Scale: float64(i)}, bundle.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		var man bundle.Manifest
		var errs [2]error
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			_, errs[0] = pub.Publish(ctx, &scaleEstimator{Scale: float64(100 + r)}, bundle.Meta{})
		}()
		go func() {
			defer wg.Done()
			<-start
			man, errs[1] = back.Rollback(ctx, 0)
		}()
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d, %s: %v", r, [2]string{"publish", "rollback"}[i], err)
			}
		}
		if man.Revision != man.RolledBackFrom+1 || man.RollbackOf >= man.RolledBackFrom {
			t.Fatalf("round %d: rollback manifest is revision %d of %d from %d", r, man.Revision, man.RollbackOf, man.RolledBackFrom)
		}
	}
	revs, err := st.Revisions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(revs) != 2*rounds+2 || revs[0] != 1 || revs[len(revs)-1] != 2*rounds+2 {
		t.Fatalf("store holds revisions %v, want 1..%d", revs, 2*rounds+2)
	}
}
