package costmodel

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestFusedBatchBitwiseEqualsSequential pins every item of a batch,
// bit for bit, to a batch of one of the same input for EVERY registry
// estimator — whether the adapter fuses the batch into one forward pass
// (zeroshot) or predicts item by item (mscn, e2e, scaledcost). A second
// batch pass guards the fused path's recycled pack/inference buffers
// against cross-batch state leaks.
func TestFusedBatchBitwiseEqualsSequential(t *testing.T) {
	f := sharedFixture(t)
	ctx := context.Background()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			est, err := New(name, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := est.Fit(ctx, f.train); err != nil {
				t.Fatal(err)
			}
			wantFused := name == NameZeroShot
			if Fused(est) != wantFused {
				t.Fatalf("Fused(%s) = %v, want %v", name, Fused(est), wantFused)
			}
			ins := Inputs(f.eval)
			want := make([]float64, len(ins))
			for i, in := range ins {
				if want[i], err = predictOne(ctx, est, in); err != nil {
					t.Fatal(err)
				}
			}
			for _, size := range []int{1, 5, len(ins)} {
				got, err := est.PredictBatch(ctx, ins[:size])
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range got {
					if math.Float64bits(p) != math.Float64bits(want[i]) {
						t.Fatalf("batch %d item %d: %v != batch of one %v", size, i, p, want[i])
					}
				}
			}
			again, err := est.PredictBatch(ctx, ins)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range again {
				if math.Float64bits(p) != math.Float64bits(want[i]) {
					t.Fatalf("repeat batch item %d: %v != %v", i, p, want[i])
				}
			}
		})
	}
}

// TestZeroShotPredictIsAFusedBatchOfOne pins the single served
// prediction, a batch of one, on its memoized path: its bits are those
// of Model.Predict on a freshly encoded graph, and a memo hit allocates
// the two result slices resolveBatch makes, not the thousand objects a
// tape costs. Model.Predict is itself a fused batch of one, so both
// sides here run the fused pass; the tape equivalence holds through
// zeroshot's TestPredictBatchBitwiseEqualsPredict, which compares the
// fused pass with the tape oracle on its own fixture.
func TestZeroShotPredictIsAFusedBatchOfOne(t *testing.T) {
	zs, f := fitZeroShot(t)
	ctx := context.Background()
	ins := Inputs(f.eval)
	for i := range ins {
		ins[i].Enc = NewEncodedPlan()
		got, err := predictOne(ctx, zs, ins[i])
		if err != nil {
			t.Fatal(err)
		}
		g, err := zs.encode(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := zs.Model().Predict(g); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("item %d: batch of one = %v, Model.Predict %v (bitwise)", i, got, want)
		}
	}
	if raceEnabled {
		return // the race detector makes sync.Pool drop items
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		j := i % len(ins)
		if _, err := zs.PredictBatch(ctx, ins[j:j+1]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 2 {
		t.Fatalf("a memoized batch of one allocates %.0f objects, want <= 2", allocs)
	}
}

// TestZeroShotBatchItemErrorNamesIndex checks the fused adapter keeps
// the fan-out path's error contract: the first bad input (by index)
// aborts the batch with a per-item error message.
func TestZeroShotBatchItemErrorNamesIndex(t *testing.T) {
	f := sharedFixture(t)
	ctx := context.Background()
	zs, err := New(NameZeroShot, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zs.Fit(ctx, f.train); err != nil {
		t.Fatal(err)
	}
	ins := []PlanInput{f.eval[0].PlanInput, {}, f.eval[1].PlanInput}
	if _, err := zs.PredictBatch(ctx, ins); err == nil {
		t.Fatal("batch with an invalid input did not fail")
	} else if want := "costmodel: batch item 1: "; len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Fatalf("err = %q, want prefix %q", err, want)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := zs.PredictBatch(cancelled, ins); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fused batch err = %v, want context.Canceled", err)
	}
}
