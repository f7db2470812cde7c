package whatif

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// sweepFixture returns the shared fixture database and its statistics
// plus statements and candidate variants over them.
func sweepFixture(t testing.TB, nCands int) (*storage.Database, *stats.DBStats, []Statement, []Variant) {
	t.Helper()
	db, st, qs := fixture(t)
	cands, err := Enumerate(db.Schema, qs, nil, nCands)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("fixture workload proposed only %d candidates", len(cands))
	}
	variants := make([]Variant, len(cands))
	for i, cand := range cands {
		variants[i] = Variant{Name: cand.Index, Indexes: []string{cand.Index}}
	}
	return db, st, Statements(qs), variants
}

// TestSweepMatchesHandRolledLoop pins the sweep against the advisor it
// replaced: an explicit loop that, per variant, builds an optimizer with
// the hypothetical IndexSet, plans every statement and sums per-plan
// predictions. Totals and the resulting ranking must agree exactly.
func TestSweepMatchesHandRolledLoop(t *testing.T) {
	_, _, qs := fixture(t)
	db, st, stmts, variants := sweepFixture(t, 6)
	est := &fakeEst{}

	rep, err := Sweep(context.Background(), db, st, est, stmts, variants)
	if err != nil {
		t.Fatal(err)
	}

	// The pre-subsystem advisor loop, verbatim semantics.
	handRolled := func(indexes []string) float64 {
		idx := optimizer.IndexSet{}
		for _, k := range indexes {
			idx[k] = true
		}
		opt := optimizer.New(db.Schema, st, idx, optimizer.DefaultCostParams())
		total := 0.0
		for _, q := range qs {
			p, err := opt.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			v, err := est.PredictBatch(context.Background(), []costmodel.PlanInput{{
				DB: db, Query: q, Plan: p, OptimizerCost: optimizer.TotalCost(p),
			}})
			if err != nil {
				t.Fatal(err)
			}
			total += v[0]
		}
		return total
	}

	type ranked struct {
		name  string
		total float64
	}
	want := make([]ranked, len(variants))
	for i, v := range variants {
		want[i] = ranked{v.Name, handRolled(v.Indexes)}
	}
	sort.SliceStable(want, func(a, b int) bool {
		if want[a].total != want[b].total {
			return want[a].total < want[b].total
		}
		return want[a].name < want[b].name
	})

	if base := handRolled(nil); math.Abs(rep.Baseline.TotalSec-base) > 1e-12 {
		t.Fatalf("baseline total %v, hand-rolled %v", rep.Baseline.TotalSec, base)
	}
	if len(rep.Variants) != len(want) {
		t.Fatalf("got %d ranked variants, want %d", len(rep.Variants), len(want))
	}
	for i, w := range want {
		got := rep.Variants[i]
		if got.Name != w.name || math.Abs(got.TotalSec-w.total) > 1e-12 {
			t.Fatalf("rank %d: got (%s, %v), hand-rolled (%s, %v)", i, got.Name, got.TotalSec, w.name, w.total)
		}
	}
	if want[0].total < rep.Baseline.TotalSec && rep.Recommendation != want[0].name {
		t.Fatalf("recommendation %q, hand-rolled winner %q", rep.Recommendation, want[0].name)
	}
}

// TestSweepFusesOneBatch: the sweep issues one PredictBatch call over
// its DISTINCT plans — fewer than the pairs it reports, because a
// candidate index on a column a statement never touches shares the
// baseline's plan — and a repeat sweep returns the same report.
func TestSweepFusesOneBatch(t *testing.T) {
	db, st, stmts, variants := sweepFixture(t, 4)
	est := &fakeEst{}
	rep, err := Sweep(context.Background(), db, st, est, stmts, variants)
	if err != nil {
		t.Fatal(err)
	}
	wantItems := (len(variants) + 1) * len(stmts)
	if rep.Items != wantItems {
		t.Fatalf("Items = %d, want %d", rep.Items, wantItems)
	}
	if calls := est.batchCalls.Load(); calls != 1 {
		t.Fatalf("sweep issued %d batch calls, want 1 fused call", calls)
	}
	distinct := distinctPlans(stmts, variants)
	if distinct < len(stmts) || distinct >= wantItems {
		t.Fatalf("fixture has %d distinct plans for %d statements and %d pairs: nothing to share", distinct, len(stmts), wantItems)
	}
	if max := est.batchMax.Load(); max != int64(distinct) {
		t.Fatalf("fused batch size %d, want %d distinct plans (of %d pairs)", max, distinct, wantItems)
	}
	if rep.Baseline.Name != "baseline" || len(rep.Baseline.Queries) != len(stmts) {
		t.Fatalf("baseline = %+v", rep.Baseline)
	}

	// Repeat sweep: identical report.
	rep2, err := Sweep(context.Background(), db, st, est, stmts, variants)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatal("repeated sweep diverged from the first")
	}
}

// distinctPlans counts the (restricted variant, statement) pairs of a
// sweep — baseline included — by the rule itself: a variant's indexes
// that the statement neither filters nor joins on do not count.
func distinctPlans(stmts []Statement, variants []Variant) int {
	seen := map[string]bool{}
	for si, stmt := range stmts {
		touched := map[string]bool{}
		for _, f := range stmt.Query.Filters {
			touched[f.Col.String()] = true
		}
		for _, j := range stmt.Query.Joins {
			touched[j.Left.String()], touched[j.Right.String()] = true, true
		}
		seen[fmt.Sprint(si, []string{})] = true // the baseline
		for _, v := range variants {
			var kept []string
			for _, idx := range v.Indexes {
				if touched[idx] {
					kept = append(kept, idx)
				}
			}
			sort.Strings(kept)
			seen[fmt.Sprint(si, dedupSorted(kept))] = true
		}
	}
	return len(seen)
}

// TestSweepNeverMutatesStorage is the copy-on-write guarantee: many
// concurrent sweeps over hypothetical indexes leave the shared database
// without a single materialized index. Run under -race this also proves
// concurrent sweeps share the database and its statistics safely.
func TestSweepNeverMutatesStorage(t *testing.T) {
	db, st, stmts, variants := sweepFixture(t, 6)
	before := strings.Join(db.IndexedColumns(), ",")

	const sweeps = 8
	reports := make([]*Report, sweeps)
	var wg sync.WaitGroup
	errs := make([]error, sweeps)
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = Sweep(context.Background(), db, st, &fakeEst{}, stmts, variants)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
	}
	if after := strings.Join(db.IndexedColumns(), ","); after != before {
		t.Fatalf("sweeps mutated shared storage: indexes %q -> %q", before, after)
	}
	for i := 1; i < sweeps; i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("concurrent sweep %d diverged", i)
		}
	}
}

func TestSweepContextCancellation(t *testing.T) {
	db, st, stmts, variants := sweepFixture(t, 3)

	// Pre-canceled: the planning loop notices before any pricing.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(pre, db, st, &fakeEst{}, stmts, variants); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled sweep err = %v, want context.Canceled", err)
	}

	// Canceled mid-sweep, while the fused batch is in flight: the sweep
	// returns the context's error, not a partial report.
	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel2()
	}()
	rep, err := Sweep(ctx, db, st, &fakeEst{block: true}, stmts, variants)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancellation err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("canceled sweep returned a report")
	}
}

// TestSweepStructuredItemErrors: a statement that fails to price under
// some variant carries its own error; the rest of the sweep prices, and
// workload speedups only compare statements priced under both sides.
func TestSweepStructuredItemErrors(t *testing.T) {
	db, st, stmts, variants := sweepFixture(t, 3)
	poisoned := stmts[0].Query
	est := &fakeEst{poison: func(in costmodel.PlanInput) error {
		if in.Query == poisoned {
			return fmt.Errorf("poisoned statement")
		}
		return nil
	}}

	rep, err := Sweep(context.Background(), db, st, est, stmts, variants)
	if err != nil {
		t.Fatal(err)
	}
	check := func(vr VariantResult) {
		t.Helper()
		if vr.Errors != 1 || vr.Queries[0].Error == "" {
			t.Fatalf("%s: errors = %d, queries[0].Error = %q", vr.Name, vr.Errors, vr.Queries[0].Error)
		}
		if vr.Queries[0].PredictedSec != 0 || vr.Queries[0].SpeedupX != 0 {
			t.Fatalf("%s: errored statement still carries a prediction: %+v", vr.Name, vr.Queries[0])
		}
		for i := 1; i < len(vr.Queries); i++ {
			if vr.Queries[i].Error != "" || vr.Queries[i].PredictedSec <= 0 {
				t.Fatalf("%s: healthy statement %d = %+v", vr.Name, i, vr.Queries[i])
			}
		}
		if vr.TotalSec <= 0 {
			t.Fatalf("%s: total = %v", vr.Name, vr.TotalSec)
		}
	}
	check(rep.Baseline)
	for _, vr := range rep.Variants {
		check(vr)
		if vr.SpeedupX <= 0 {
			t.Fatalf("%s: no workload speedup despite shared healthy statements", vr.Name)
		}
	}
}

// TestSweepSharedPlanSharesItsError: when the estimator fails one plan,
// every pair sharing that plan — the baseline and each variant that
// cannot touch the statement — reports the error and counts it; pairs
// with a plan of their own for the same statement still price.
func TestSweepSharedPlanSharesItsError(t *testing.T) {
	db, st, stmts, variants := sweepFixture(t, 6)
	// Pick a statement some candidates cannot touch (they share the
	// baseline's plan and so its price) and some re-plan.
	probe, err := Sweep(context.Background(), db, st, &fakeEst{}, stmts, variants)
	if err != nil {
		t.Fatal(err)
	}
	target, sharers, owners := -1, 0, 0
	for si := range stmts {
		sharers, owners = 0, 0
		for _, vr := range probe.Variants {
			if vr.Queries[si].PredictedSec == probe.Baseline.Queries[si].PredictedSec {
				sharers++
			} else {
				owners++
			}
		}
		if sharers > 0 && owners > 0 {
			target = si
			break
		}
	}
	if target < 0 {
		t.Fatal("fixture has no statement with both shared and re-planned variants")
	}
	// Poison exactly that statement's baseline plan.
	base, err := plan(db, st, Variant{}, stmts[target])
	if err != nil {
		t.Fatal(err)
	}
	est := &fakeEst{poison: func(in costmodel.PlanInput) error {
		if in.Query == stmts[target].Query && in.OptimizerCost == base.OptimizerCost {
			return errPoisoned
		}
		return nil
	}}

	rep, err := Sweep(context.Background(), db, st, est, stmts, variants)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Items != (len(variants)+1)*len(stmts) {
		t.Fatalf("Items = %d: a pricing failure must not shrink the pair count", rep.Items)
	}
	if rep.Baseline.Errors != 1 || rep.Baseline.Queries[target].Error != errPoisoned.Error() {
		t.Fatalf("baseline: errors %d, query %+v", rep.Baseline.Errors, rep.Baseline.Queries[target])
	}
	gotSharers, gotOwners := 0, 0
	for _, vr := range rep.Variants {
		qr := vr.Queries[target]
		switch {
		case qr.Error == errPoisoned.Error() && vr.Errors == 1 && qr.PredictedSec == 0:
			gotSharers++
		case qr.Error == "" && vr.Errors == 0 && qr.PredictedSec > 0:
			gotOwners++
		default:
			t.Fatalf("%s: errors %d, query %+v", vr.Name, vr.Errors, qr)
		}
	}
	if gotSharers != sharers || gotOwners != owners {
		t.Fatalf("error reached %d variants and spared %d, want %d and %d", gotSharers, gotOwners, sharers, owners)
	}
}

// TestSweepCancelledWhilePlanning: the context is checked once per pair,
// shared plan or not, so a sweep cancelled part-way through its pairs
// returns the bare context error and no report.
func TestSweepCancelledWhilePlanning(t *testing.T) {
	db, st, stmts, variants := sweepFixture(t, 4)
	pairs := (len(variants) + 1) * len(stmts)
	for _, after := range []int{0, 1, len(stmts), pairs - 1} {
		ctx := &countdownCtx{Context: context.Background(), left: after}
		rep, err := Sweep(ctx, db, st, &fakeEst{}, stmts, variants)
		if err != context.Canceled || rep != nil {
			t.Fatalf("cancelled after %d pair checks: report %v, err %v", after, rep != nil, err)
		}
		if ctx.checks != after+1 {
			t.Fatalf("cancelled after %d pair checks: sweep asked the context %d times, want %d", after, ctx.checks, after+1)
		}
	}
}

// countdownCtx reports context.Canceled from its (left+1)th Err call on.
type countdownCtx struct {
	context.Context
	left, checks int
}

func (c *countdownCtx) Err() error {
	c.checks++
	if c.checks > c.left {
		return context.Canceled
	}
	return nil
}

func TestSweepRequestLevelErrors(t *testing.T) {
	db, st, stmts, variants := sweepFixture(t, 3)
	if _, err := Sweep(context.Background(), db, st, &fakeEst{}, nil, variants); !errors.Is(err, ErrEmptyWorkload) {
		t.Fatalf("empty workload err = %v", err)
	}
	if _, err := Sweep(context.Background(), db, st, &fakeEst{}, stmts, nil); !errors.Is(err, ErrNoVariants) {
		t.Fatalf("no variants err = %v", err)
	}
}
