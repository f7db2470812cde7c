package costmodel

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// countdownCtx reports Canceled after Err has been consulted n times —
// a deterministic way to cancel mid-training without timing games.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestFitCancelPropagatesToTraining: the ctx handed to Fit reaches the
// epoch/minibatch boundaries of every neural estimator's training loop,
// so a cancellation aborts a long fit instead of running it to
// completion. scaledcost is a closed-form fit with one up-front check.
func TestFitCancelPropagatesToTraining(t *testing.T) {
	f := sharedFixture(t)
	for _, name := range []string{NameZeroShot, NameMSCN, NameE2E} {
		t.Run(name, func(t *testing.T) {
			opts := smallOpts()
			opts.Epochs = 200 // would take a while if cancellation were ignored
			est, err := New(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &countdownCtx{Context: context.Background()}
			ctx.left.Store(5) // past Fit's own checks, a few minibatches into training
			if _, err := est.Fit(ctx, f.train); !errors.Is(err, context.Canceled) {
				t.Fatalf("Fit with mid-training cancel returned %v, want context.Canceled", err)
			}
		})
	}

	// FineTune shares the loop and the contract.
	zs2, err := New(NameZeroShot, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zs2.Fit(context.Background(), f.train); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := zs2.(Tuner).FineTune(cancelled, f.eval, 50, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("FineTune with pre-canceled ctx returned %v, want context.Canceled", err)
	}
}

// TestFitReportCarriesThroughput: Fit and FineTune surface the training
// engine's wall-time and samples/s in the FitReport — the numbers the
// adapt status endpoint republishes.
func TestFitReportCarriesThroughput(t *testing.T) {
	f := sharedFixture(t)
	zs, err := New(NameZeroShot, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	report, err := zs.Fit(context.Background(), f.train)
	if err != nil {
		t.Fatal(err)
	}
	if report.WallTime <= 0 || report.SamplesPerSec <= 0 {
		t.Fatalf("Fit report missing throughput: wall=%v rate=%v", report.WallTime, report.SamplesPerSec)
	}
	ftReport, err := zs.(Tuner).FineTune(context.Background(), f.eval, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ftReport.WallTime <= 0 || ftReport.SamplesPerSec <= 0 {
		t.Fatalf("FineTune report missing throughput: wall=%v rate=%v", ftReport.WallTime, ftReport.SamplesPerSec)
	}
}

// TestFineTuneCloneWhileServing is the adaptation loop's safety story
// under -race: the original estimator keeps serving single and batch
// predictions — unchanged outputs throughout — while its clone
// fine-tunes on the shared worker pool. Training and inference share
// the par worker pool, so this also exercises pool contention.
func TestFineTuneCloneWhileServing(t *testing.T) {
	f := sharedFixture(t)
	ctx := context.Background()
	zs, err := New(NameZeroShot, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zs.Fit(ctx, f.train); err != nil {
		t.Fatal(err)
	}
	ins := Inputs(f.eval)
	want, err := zs.PredictBatch(ctx, ins)
	if err != nil {
		t.Fatal(err)
	}
	clone := zs.(Tuner).Clone()

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := clone.FineTune(ctx, f.eval, 6, 0.01); err != nil {
			errCh <- err
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				if g%2 == 0 {
					got, err := zs.PredictBatch(ctx, ins)
					if err != nil {
						errCh <- err
						return
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("goroutine %d: batch[%d] = %v, want %v (training moved the serving model)",
								g, i, got[i], want[i])
							return
						}
					}
				} else {
					for i, in := range ins {
						got, err := predictOne(ctx, zs, in)
						if err != nil {
							errCh <- err
							return
						}
						if math.Abs(got-want[i]) > 1e-12 {
							t.Errorf("goroutine %d: predict[%d] = %v, want %v", g, i, got, want[i])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// The clone actually trained.
	tuned, err := clone.PredictBatch(ctx, ins)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for i := range tuned {
		if tuned[i] != want[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("concurrent fine-tune left the clone's predictions unchanged")
	}
}
