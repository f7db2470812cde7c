package costmodel

import (
	"context"
	"math"
	"sync"
	"testing"
)

// TestConcurrentInference hammers Predict and PredictBatch from many
// goroutines on every adapter at once. Run under -race (CI does), this is
// the regression test for the goroutine-safety contract: inference after
// Fit must be safe from any number of goroutines, including the lazy
// featurization caches warming up concurrently.
func TestConcurrentInference(t *testing.T) {
	f := sharedFixture(t)
	ctx := context.Background()
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			est, err := New(name, smallOpts())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := est.Fit(ctx, f.train); err != nil {
				t.Fatal(err)
			}
			ins := Inputs(f.eval)
			// Reference predictions, computed serially.
			want := make([]float64, len(ins))
			for i, in := range ins {
				if want[i], err = predictOne(ctx, est, in); err != nil {
					t.Fatal(err)
				}
			}

			const goroutines = 16
			var wg sync.WaitGroup
			errCh := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// Half the goroutines hammer batches, half single
					// predictions, to interleave both paths.
					if g%2 == 0 {
						got, err := est.PredictBatch(ctx, ins)
						if err != nil {
							errCh <- err
							return
						}
						for i := range got {
							if math.Abs(got[i]-want[i]) > 1e-12 {
								t.Errorf("goroutine %d: batch[%d] = %v, want %v", g, i, got[i], want[i])
								return
							}
						}
					} else {
						for i := len(ins) - 1; i >= 0; i-- {
							got, err := predictOne(ctx, est, ins[i])
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
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
		})
	}
}
