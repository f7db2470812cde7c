package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// newFakeCluster builds a router over n scripted backends r0..r{n-1},
// each claiming every database.
func newFakeCluster(t *testing.T, cfg Config, n int) (*Router, map[string]*fakeBackend) {
	t.Helper()
	r := NewRouter(cfg)
	t.Cleanup(func() { r.Close() })
	backs := map[string]*fakeBackend{}
	for i := 0; i < n; i++ {
		name := string(rune('r'+0)) + string(rune('0'+i))
		b := newFakeBackend(name)
		backs[name] = b
		if err := r.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	return r, backs
}

func TestRouterRoutesToOwner(t *testing.T) {
	r, backs := newFakeCluster(t, Config{}, 3)
	ctx := context.Background()
	for _, db := range []string{"imdb", "ssb", "tpch", "accounts", "web"} {
		owner := r.Owner(db)
		before := backs[owner].predictCount()
		if _, err := r.Predict(ctx, db, "m", "SELECT COUNT(*) FROM t"); err != nil {
			t.Fatalf("Predict(%s): %v", db, err)
		}
		if got := backs[owner].predictCount(); got != before+1 {
			t.Fatalf("db %s: owner %s predict count %d, want %d", db, owner, got, before+1)
		}
	}
}

func TestRouterFailoverOnCrash(t *testing.T) {
	r, backs := newFakeCluster(t, Config{}, 3)
	ctx := context.Background()
	const db = "imdb"
	seq := r.Route(db)
	owner, second := seq[0], seq[1]
	backs[owner].setDown(true)
	p, err := r.Predict(ctx, db, "m", "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("Predict with downed owner: %v", err)
	}
	// The answer must be identical to what the owner would have served.
	if want := fakePrediction(db, "m", "SELECT COUNT(*) FROM t"); p.RuntimeSec != want.RuntimeSec {
		t.Fatalf("failover changed the prediction: %v vs %v", p.RuntimeSec, want.RuntimeSec)
	}
	if got := backs[second].predictCount(); got != 1 {
		t.Fatalf("successor %s served %d, want 1", second, got)
	}
	if r.Healthy()[owner] {
		t.Fatalf("owner %s still marked healthy after failed call", owner)
	}
	st, err := r.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", st.Failovers)
	}
	for _, rs := range st.Replicas {
		if rs.Name == second && rs.Rescued != 1 {
			t.Fatalf("replica %s Rescued = %d, want 1", second, rs.Rescued)
		}
	}
	// Recovery: heal the owner, re-probe, and the next request goes home.
	backs[owner].setDown(false)
	if errs := r.CheckHealth(ctx); errs[owner] != nil {
		t.Fatalf("health probe after heal: %v", errs[owner])
	}
	if !r.Healthy()[owner] {
		t.Fatalf("owner %s not healthy after successful probe", owner)
	}
	before := backs[owner].predictCount()
	if _, err := r.Predict(ctx, db, "m", "SELECT COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	if got := backs[owner].predictCount(); got != before+1 {
		t.Fatalf("recovered owner did not serve: %d, want %d", got, before+1)
	}
}

func TestRouterAllReplicasDown(t *testing.T) {
	r, backs := newFakeCluster(t, Config{}, 3)
	for _, b := range backs {
		b.setDown(true)
	}
	_, err := r.Predict(context.Background(), "imdb", "m", "SELECT COUNT(*) FROM t")
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("all-down Predict error = %v, want ErrNoReplica", err)
	}
	// An unhealthy mark must not strand the cluster: heal the backends
	// and the very next request succeeds via the last-resort pass, no
	// probe needed.
	for _, b := range backs {
		b.setDown(false)
	}
	if _, err := r.Predict(context.Background(), "imdb", "m", "SELECT COUNT(*) FROM t"); err != nil {
		t.Fatalf("Predict after heal (no probe): %v", err)
	}
}

func TestRouterEmpty(t *testing.T) {
	r := NewRouter(Config{})
	defer r.Close()
	_, err := r.Predict(context.Background(), "imdb", "m", "SELECT 1")
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("empty router error = %v, want ErrNoReplica", err)
	}
}

func TestRouterShardedNotFoundWalksRing(t *testing.T) {
	// Shard: each backend holds only its own database. The ring owner of
	// "holderdb" may be a replica that does NOT hold it; the router must
	// walk the ring to the actual holder instead of failing.
	r := NewRouter(Config{})
	defer r.Close()
	holder := newFakeBackend("holder", "holderdb")
	other1 := newFakeBackend("other1", "otherdb1")
	other2 := newFakeBackend("other2", "otherdb2")
	for _, b := range []*fakeBackend{holder, other1, other2} {
		if err := r.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Predict(context.Background(), "holderdb", "m", "SELECT COUNT(*) FROM t"); err != nil {
		t.Fatalf("sharded Predict: %v", err)
	}
	if holder.predictCount() != 1 {
		t.Fatalf("holder served %d, want 1", holder.predictCount())
	}
	// A database attached nowhere is a clean not-found, not a
	// no-replica outage.
	_, err := r.Predict(context.Background(), "nosuchdb", "m", "SELECT COUNT(*) FROM t")
	if !errors.Is(err, serving.ErrNotFound) {
		t.Fatalf("unknown db error = %v, want serving.ErrNotFound", err)
	}
	if errors.Is(err, ErrNoReplica) {
		t.Fatalf("unknown db misclassified as outage: %v", err)
	}
}

// TestRouterBadQueryDoesNotFailOver asserts request-level failures
// return immediately: retrying a malformed statement on another replica
// wastes capacity and duplicates errors.
func TestRouterBadQueryDoesNotFailOver(t *testing.T) {
	r := NewRouter(Config{})
	defer r.Close()
	bad := &badQueryBackend{fakeBackend: newFakeBackend("bad")}
	if err := r.Register(bad); err != nil {
		t.Fatal(err)
	}
	spare := newFakeBackend("spare")
	if err := r.Register(spare); err != nil {
		t.Fatal(err)
	}
	// Find a db the bad backend owns so the first attempt hits it.
	var db string
	for _, cand := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		if r.Owner(cand) == "bad" {
			db = cand
			break
		}
	}
	if db == "" {
		t.Skip("no candidate db hashed onto the bad replica")
	}
	_, err := r.Predict(context.Background(), db, "m", "SELEC nonsense")
	if !errors.Is(err, serving.ErrBadQuery) {
		t.Fatalf("error = %v, want ErrBadQuery", err)
	}
	if spare.predictCount() != 0 {
		t.Fatalf("bad query failed over to spare (%d calls); it must not", spare.predictCount())
	}
	if !r.Healthy()["bad"] {
		t.Fatal("request-level error marked the replica unhealthy")
	}
}

// badQueryBackend fails every Predict with ErrBadQuery.
type badQueryBackend struct{ *fakeBackend }

func (b *badQueryBackend) Predict(ctx context.Context, db, model, sql string) (serving.Prediction, error) {
	return serving.Prediction{}, fmt.Errorf("parse: unexpected token: %w", serving.ErrBadQuery)
}

func TestRouterSlowReplicaFailsOver(t *testing.T) {
	r, backs := newFakeCluster(t, Config{CallTimeout: 30 * time.Millisecond}, 3)
	const db = "imdb"
	seq := r.Route(db)
	backs[seq[0]].setSlow(500 * time.Millisecond)
	start := time.Now()
	_, err := r.Predict(context.Background(), db, "m", "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("Predict with slow owner: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("slow owner stalled the request %v; CallTimeout did not cut it off", elapsed)
	}
	if backs[seq[1]].predictCount() != 1 {
		t.Fatalf("successor served %d, want 1", backs[seq[1]].predictCount())
	}
	if r.Healthy()[seq[0]] {
		t.Fatal("slow replica not marked unhealthy")
	}
}

func TestRouterDuplicateRegister(t *testing.T) {
	r := NewRouter(Config{})
	defer r.Close()
	if err := r.Register(newFakeBackend("dup")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(newFakeBackend("dup")); err == nil {
		t.Fatal("duplicate Register succeeded, want error")
	}
	if got := len(r.Replicas()); got != 1 {
		t.Fatalf("replicas after duplicate Register = %d, want 1", got)
	}
}

func TestRouterFanoutAggregation(t *testing.T) {
	r := NewRouter(Config{})
	defer r.Close()
	// Mirrored topology: both replicas hold both databases.
	b0 := newFakeBackend("r0", "imdb", "ssb")
	b1 := newFakeBackend("r1", "imdb", "ssb")
	for _, b := range []*fakeBackend{b0, b1} {
		if err := r.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	dbs, err := r.Databases(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 2 {
		t.Fatalf("aggregated databases = %+v, want 2 deduped entries", dbs)
	}
	for _, d := range dbs {
		if len(d.Replicas) != 2 {
			t.Fatalf("db %s holders = %v, want both replicas", d.Name, d.Replicas)
		}
		if d.Owner != r.Owner(d.Name) {
			t.Fatalf("db %s owner = %s, ring says %s", d.Name, d.Owner, r.Owner(d.Name))
		}
	}
	models, err := r.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 { // fake-r0, fake-r1
		t.Fatalf("models union = %v", models)
	}
	// A downed replica degrades the listing instead of failing it.
	b1.setDown(true)
	dbs, err = r.Databases(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 2 {
		t.Fatalf("databases with one replica down = %+v", dbs)
	}
	for _, d := range dbs {
		if len(d.Replicas) != 1 || d.Replicas[0] != "r0" {
			t.Fatalf("db %s holders with r1 down = %v", d.Name, d.Replicas)
		}
	}
	st, err := r.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var sawDownRow bool
	for _, rs := range st.Replicas {
		if rs.Name == "r1" {
			sawDownRow = true
			if rs.Error == "" || rs.Serving != nil {
				t.Fatalf("down replica row = %+v, want error and no serving snapshot", rs)
			}
			if rs.Healthy {
				t.Fatal("down replica still marked healthy in stats")
			}
		}
	}
	if !sawDownRow {
		t.Fatalf("stats missing replica r1: %+v", st.Replicas)
	}
}

func TestRouterFeedbackRoutesToOwner(t *testing.T) {
	r, backs := newFakeCluster(t, Config{}, 3)
	ctx := context.Background()
	for _, db := range []string{"imdb", "ssb", "tpch"} {
		owner := r.Owner(db)
		if err := r.Feedback(ctx, db, "fp-"+db, 0.5); err != nil {
			t.Fatalf("Feedback(%s): %v", db, err)
		}
		if got := backs[owner].feedbackCount(db); got != 1 {
			t.Fatalf("db %s feedback landed off-owner (owner %s count %d)", db, owner, got)
		}
	}
}

func TestRouterClosed(t *testing.T) {
	r, _ := newFakeCluster(t, Config{}, 2)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Predict(context.Background(), "imdb", "m", "SELECT 1"); !errors.Is(err, serving.ErrClosed) {
		t.Fatalf("Predict after Close = %v, want ErrClosed", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestRouterDeregisterShiftsOwnership(t *testing.T) {
	r, backs := newFakeCluster(t, Config{}, 3)
	ctx := context.Background()
	const db = "imdb"
	seq := r.Route(db)
	owner, second := seq[0], seq[1]
	if _, ok := r.Deregister(owner); !ok {
		t.Fatalf("Deregister(%s) found nothing", owner)
	}
	if got := r.Owner(db); got != second {
		t.Fatalf("owner after deregister = %s, want ring successor %s", got, second)
	}
	if _, err := r.Predict(ctx, db, "m", "SELECT COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	if backs[second].predictCount() != 1 {
		t.Fatalf("new owner served %d, want 1", backs[second].predictCount())
	}
}
