package costmodel

import (
	"context"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

// TestEncodedPlanMemo pins the encoded-graph reuse contract: a PlanInput
// carrying an EncodedPlan memo is encoded exactly once per encoder configuration, and
// estimators with different cardinality sources never share an entry.
func TestEncodedPlanMemo(t *testing.T) {
	f := sharedFixture(t)
	est, err := New(NameZeroShot, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	zs := est.(*ZeroShot)

	in := f.train[0].PlanInput
	in.Enc = NewEncodedPlan()

	g1, err := zs.encode(in)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := zs.encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("memoized input re-encoded: second encode returned a new graph")
	}

	// Without a memo every encode builds a fresh graph.
	bare := in
	bare.Enc = nil
	b1, err := zs.encode(bare)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := zs.encode(bare)
	if err != nil {
		t.Fatal(err)
	}
	if b1 == b2 {
		t.Fatal("memo-less encodes unexpectedly shared a graph")
	}

	// A second estimator with a different cardinality source keys its own
	// entry in the same memo: the graphs differ, and each is stable.
	other, err := New(NameZeroShot, Options{Hidden: 16, Epochs: 4, Seed: 1, Card: encoding.CardEstimated})
	if err != nil {
		t.Fatal(err)
	}
	o1, err := other.(*ZeroShot).encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == g1 {
		t.Fatal("estimators with different cardinality sources shared a graph")
	}
	o2, err := other.(*ZeroShot).encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if o1 != o2 {
		t.Fatal("second estimator's memo entry is not stable")
	}

	// Nil memos are inert, not panics.
	var nilMemo *EncodedPlan
	if _, ok := nilMemo.lookup(encoding.Key{}); ok {
		t.Fatal("nil memo claims a hit")
	}
	nilMemo.store(encoding.Key{}, g1)
}

// TestEncodedPlanMemoAllocs pins the hot-path payoff: a steady-state
// batch of one over a memoized input skips graph encoding entirely, so
// it must allocate strictly less than one that encodes every time — and,
// answered from the memo, only its two result slices.
func TestEncodedPlanMemoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc bounds only hold unraced")
	}
	f := sharedFixture(t)
	est, err := New(NameZeroShot, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	warmIn := []PlanInput{f.eval[0].PlanInput}
	warmIn[0].Enc = NewEncodedPlan()
	if _, err := est.PredictBatch(ctx, warmIn); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(50, func() {
		if _, err := est.PredictBatch(ctx, warmIn); err != nil {
			t.Fatal(err)
		}
	})

	coldIn := []PlanInput{f.eval[0].PlanInput}
	cold := testing.AllocsPerRun(50, func() {
		coldIn[0].Enc = NewEncodedPlan()
		if _, err := est.PredictBatch(ctx, coldIn); err != nil {
			t.Fatal(err)
		}
	})

	if warm >= cold {
		t.Fatalf("memoized predict allocates %.0f/op, fresh-encode predict %.0f/op — graph reuse is not engaged", warm, cold)
	}
	// A memo hit answers from the slot: the encoder stays on the stack,
	// one lock returns the seconds, and only the graph and answer slices
	// of resolveBatch are made.
	if warm > 2 {
		t.Fatalf("memo-hit batch of one allocates %.0f/op, want <= 2", warm)
	}
}
