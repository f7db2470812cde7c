package serving

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

func whatIfSession(t *testing.T) (*Session, testDB, *fakeEstimator) {
	t.Helper()
	imdb, _ := fixtures(t)
	sess := NewSession(Config{})
	t.Cleanup(func() { sess.Close() })
	if err := sess.AttachDatabase("imdb", imdb.db); err != nil {
		t.Fatal(err)
	}
	est := &fakeEstimator{name: "fake"}
	if err := sess.AttachModel(est); err != nil {
		t.Fatal(err)
	}
	return sess, imdb, est
}

func TestSessionWhatIf(t *testing.T) {
	sess, imdb, est := whatIfSession(t)
	ctx := context.Background()

	rep, err := sess.WhatIf(ctx, "", "", whatif.Request{SQL: imdb.sqls[:4]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Database != "imdb" || rep.Model != "fake" {
		t.Fatalf("report names = (%q, %q)", rep.Database, rep.Model)
	}
	if len(rep.Candidates) == 0 {
		t.Fatal("no candidates enumerated for the workload")
	}
	if len(rep.Variants) != len(rep.Candidates) {
		t.Fatalf("%d variants for %d candidates", len(rep.Variants), len(rep.Candidates))
	}
	if want := (len(rep.Candidates) + 1) * 4; rep.Items != want {
		t.Fatalf("Items = %d, want %d", rep.Items, want)
	}
	if rep.Baseline.TotalSec <= 0 {
		t.Fatalf("baseline = %+v", rep.Baseline)
	}
	for i := 1; i < len(rep.Variants); i++ {
		if rep.Variants[i-1].TotalSec > rep.Variants[i].TotalSec {
			t.Fatalf("variants not ranked: %v before %v", rep.Variants[i-1].TotalSec, rep.Variants[i].TotalSec)
		}
	}
	// The sweep priced the whole cross product through one fused batch.
	if calls := est.batchCalls.Load(); calls != 1 {
		t.Fatalf("sweep issued %d batch calls, want 1", calls)
	}

	// Explicit candidates skip enumeration and are echoed back.
	rep2, err := sess.WhatIf(ctx, "imdb", "fake", whatif.Request{
		SQL:        imdb.sqls[:2],
		Candidates: []string{"movie_companies.movie_id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Candidates) != 1 || rep2.Candidates[0].Index != "movie_companies.movie_id" ||
		rep2.Candidates[0].Source != whatif.SourceUser {
		t.Fatalf("candidates = %+v", rep2.Candidates)
	}

	st := sess.Stats()
	if st.WhatIf.Sweeps != 2 {
		t.Fatalf("sweeps = %d, want 2", st.WhatIf.Sweeps)
	}
	if st.WhatIf.Latency.Count != 2 || st.WhatIf.BatchSizes.Count != 2 {
		t.Fatalf("whatif stats = %+v", st.WhatIf)
	}
	if st.WhatIf.BatchSizes.Max != float64(rep.Items) {
		t.Fatalf("batch size max = %v, want %v", st.WhatIf.BatchSizes.Max, rep.Items)
	}
	if st.Errors != 0 {
		t.Fatalf("errors = %d after healthy sweeps", st.Errors)
	}
	if len(st.Databases) != 1 || st.Databases[0].WhatIfCache != nil {
		t.Fatalf("database stats carry a what-if cache: %+v", st.Databases)
	}
}

func TestSessionWhatIfErrors(t *testing.T) {
	sess, imdb, _ := whatIfSession(t)
	ctx := context.Background()

	if _, err := sess.WhatIf(ctx, "nosuch", "", whatif.Request{SQL: imdb.sqls[:1]}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown db err = %v, want ErrNotFound", err)
	}
	if _, err := sess.WhatIf(ctx, "", "nosuch", whatif.Request{SQL: imdb.sqls[:1]}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown model err = %v, want ErrNotFound", err)
	}
	if _, err := sess.WhatIf(ctx, "", "", whatif.Request{}); !errors.Is(err, ErrBadQuery) || !errors.Is(err, whatif.ErrEmptyWorkload) {
		t.Fatalf("empty workload err = %v, want ErrBadQuery+ErrEmptyWorkload", err)
	}
	if _, err := sess.WhatIf(ctx, "", "", whatif.Request{SQL: []string{"SELECT nonsense"}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("unparseable statement err = %v, want ErrBadQuery", err)
	}
	malformed := whatif.Request{SQL: imdb.sqls[:1], Candidates: []string{"no_dot"}}
	if _, err := sess.WhatIf(ctx, "", "", malformed); !errors.Is(err, ErrBadQuery) || !errors.Is(err, whatif.ErrBadCandidate) {
		t.Fatalf("malformed candidate err = %v, want ErrBadQuery+ErrBadCandidate", err)
	}

	errsBefore := sess.Stats().Errors
	if errsBefore == 0 {
		t.Fatal("request-level failures did not count as errors")
	}

	// Mid-sweep cancellation: the estimator stalls past the caller's
	// deadline; the sweep returns the context's error bare and it stays
	// out of the error counters (the client gave up, serving did not
	// fail).
	slow := &fakeEstimator{name: "slow", delay: 200 * time.Millisecond}
	if err := sess.AttachModel(slow); err != nil {
		t.Fatal(err)
	}
	tctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	_, err := sess.WhatIf(tctx, "imdb", "slow", whatif.Request{SQL: imdb.sqls[:3]})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-sweep cancellation err = %v, want context.DeadlineExceeded", err)
	}
	st := sess.Stats()
	if st.Errors != errsBefore {
		t.Fatalf("cancellation moved the error counter: %d -> %d", errsBefore, st.Errors)
	}
	if st.WhatIf.Sweeps != 0 {
		t.Fatalf("failed sweeps were counted: %d", st.WhatIf.Sweeps)
	}

	// After Close every sweep fails closed.
	sess.Close()
	if _, err := sess.WhatIf(ctx, "", "", whatif.Request{SQL: imdb.sqls[:1]}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed session err = %v, want ErrClosed", err)
	}
}

// TestWhatIfLeavesPlanCacheUntouched: a what-if request only parses its
// statements; the sweep is its one planner. The plan cache sees no
// lookup and no put, the optimize and featurize stages do not run, and
// a later predict of a swept statement misses.
func TestWhatIfLeavesPlanCacheUntouched(t *testing.T) {
	sess, imdb, _ := whatIfSession(t)
	ctx := context.Background()
	stmts := imdb.sqls[:4]
	snap := func() DatabaseStats {
		t.Helper()
		dbs := sess.Stats().Databases
		if len(dbs) != 1 {
			t.Fatalf("%d databases in stats", len(dbs))
		}
		return dbs[0]
	}
	before := snap()
	if _, err := sess.WhatIf(ctx, "", "", whatif.Request{SQL: stmts}); err != nil {
		t.Fatal(err)
	}
	after := snap()
	if after.PlanCache != before.PlanCache {
		t.Fatalf("a sweep moved the plan cache: %+v -> %+v", before.PlanCache, after.PlanCache)
	}
	for _, stage := range []string{StageOptimize, StageFeaturize} {
		if b, a := before.Stages[stage].Count, after.Stages[stage].Count; a != b {
			t.Fatalf("a sweep ran the %s stage: count %d -> %d", stage, b, a)
		}
	}
	if b, a := before.Stages[StageParse].Count, after.Stages[StageParse].Count; a != b+int64(len(stmts)) {
		t.Fatalf("parse count %d -> %d over %d statements", b, a, len(stmts))
	}

	pred, err := sess.Predict(ctx, "", "", stmts[0])
	if err != nil {
		t.Fatal(err)
	}
	if pred.PlanCached {
		t.Fatal("a predict of a swept statement hit the plan cache")
	}
	if st := snap().PlanCache; st.Misses != before.PlanCache.Misses+1 || st.Size != before.PlanCache.Size+1 {
		t.Fatalf("predict after a sweep: plan cache %+v -> %+v, want one miss and one entry", before.PlanCache, st)
	}
}

// TestColdPrepareClonesOnlyBorrowedText: a plan-cache miss copies the
// statement only when the caller lends it (a batch's statements alias
// the request buffer); an owned statement, a single predict's, is
// parsed as it is, one allocation fewer. Each run misses a fresh cache.
func TestColdPrepareClonesOnlyBorrowedText(t *testing.T) {
	sess, imdb, _ := whatIfSession(t)
	ctx := context.Background()
	d, err := sess.database("imdb")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(borrowed bool) float64 {
		return testing.AllocsPerRun(50, func() {
			d.cache = costmodel.NewPlanCache(4)
			if _, cached, _, err := d.prepare(ctx, imdb.sqls[0], borrowed, nil); err != nil || cached {
				t.Fatalf("cold prepare = (cached=%v, %v)", cached, err)
			}
		})
	}
	owned, borrowed := allocs(false), allocs(true)
	if owned != borrowed-1 {
		t.Fatalf("a cold prepare allocates %v objects for an owned statement and %v for a borrowed one, want exactly one fewer", owned, borrowed)
	}
}

// TestPipelineRetainsEncodedGraph pins the hot-path contract the
// encoded-graph memo depends on: the prepared input a plan-cache hit
// returns carries the SAME EncodedPlan as the first preparation, so an
// estimator's graph encoding survives across repeated predictions of
// one query shape.
func TestPipelineRetainsEncodedGraph(t *testing.T) {
	sess, imdb, _ := whatIfSession(t)
	ctx := context.Background()

	d, err := sess.database("imdb")
	if err != nil {
		t.Fatal(err)
	}
	in1, cached, fp, err := d.prepare(ctx, imdb.sqls[0], false, nil)
	if err != nil || cached {
		t.Fatalf("first prepare = (cached=%v, %v)", cached, err)
	}
	if in1.Enc == nil {
		t.Fatal("prepared input carries no encoding memo")
	}
	in2, cached, _, err := d.prepare(ctx, imdb.sqls[0], false, nil)
	if err != nil || !cached {
		t.Fatalf("second prepare = (cached=%v, %v)", cached, err)
	}
	if in2.Enc != in1.Enc {
		t.Fatal("plan-cache hit returned a different encoding memo — graph reuse broken")
	}
	peek, ok := d.cache.Peek(fp)
	if !ok || peek.Enc != in1.Enc {
		t.Fatal("cached plan input does not retain the encoding memo")
	}
}
