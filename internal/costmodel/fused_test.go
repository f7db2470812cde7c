package costmodel

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestFusedBatchBitwiseEqualsSequential pins PredictBatch to the
// sequential Predict loop for EVERY registry estimator: same inputs,
// identical float64 outputs — whether the adapter fuses the batch into
// one forward pass (zeroshot) or falls back to the worker-pool fan-out
// (mscn, e2e, scaledcost). A second batch pass guards the fused path's
// recycled pack/inference buffers against cross-batch state leaks.
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
				if want[i], err = est.Predict(ctx, in); err != nil {
					t.Fatal(err)
				}
			}
			for _, size := range []int{1, 5, len(ins)} {
				got, err := est.PredictBatch(ctx, ins[:size])
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range got {
					if p != want[i] {
						t.Fatalf("batch %d item %d: %v != sequential %v", size, i, p, want[i])
					}
				}
			}
			again, err := est.PredictBatch(ctx, ins)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range again {
				if p != want[i] {
					t.Fatalf("repeat batch item %d: %v != %v", i, p, want[i])
				}
			}
		})
	}
}

// TestZeroShotPredictIsAFusedBatchOfOne pins the single served
// prediction's memoized-encoding path: with the plan's graph memoized,
// its bits are those of Model.Predict on a freshly encoded graph, and it
// allocates a handful of objects, not the thousand a tape costs.
// Model.Predict is itself a fused batch of one, so both sides here run
// the fused pass; the tape equivalence holds through zeroshot's
// TestPredictBatchBitwiseEqualsPredict, which compares the fused pass
// with the tape oracle on its own fixture.
func TestZeroShotPredictIsAFusedBatchOfOne(t *testing.T) {
	zs, f := fitZeroShot(t)
	ctx := context.Background()
	ins := Inputs(f.eval)
	for i := range ins {
		ins[i].Enc = NewEncodedPlan()
		got, err := zs.Predict(ctx, ins[i])
		if err != nil {
			t.Fatal(err)
		}
		g, err := zs.encode(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := zs.Model().Predict(g); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("item %d: ZeroShot.Predict = %v, Model.Predict %v (bitwise)", i, got, want)
		}
	}
	if raceEnabled {
		return // the race detector makes sync.Pool drop items
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := zs.Predict(ctx, ins[i%len(ins)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 10 {
		t.Fatalf("a memoized single prediction allocates %.0f objects, want <= 10", allocs)
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
