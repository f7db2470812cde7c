package metrics

import (
	"fmt"
	"sync"
	"testing"
)

func TestLabelledCounterBasics(t *testing.T) {
	var c LabelledCounter
	if got := c.Value("r0"); got != 0 {
		t.Fatalf("zero-value counter Value = %d", got)
	}
	c.Inc("r0")
	c.Inc("r0")
	for i := 0; i < 5; i++ {
		c.Inc("r1")
	}
	if got := c.Value("r0"); got != 2 {
		t.Fatalf("r0 = %d, want 2", got)
	}
	if got := c.Value("r1"); got != 5 {
		t.Fatalf("r1 = %d, want 5", got)
	}
}

// TestLabelledCounterConcurrent hammers label creation and increments
// from many goroutines; run under -race in CI.
func TestLabelledCounterConcurrent(t *testing.T) {
	var c LabelledCounter
	const workers, perWorker, labels = 8, 500, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc(fmt.Sprintf("replica-%d", (w+i)%labels))
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for l := 0; l < labels; l++ {
		// Each worker spreads its increments evenly over the labels.
		v := c.Value(fmt.Sprintf("replica-%d", l))
		if v != workers*perWorker/labels {
			t.Fatalf("replica-%d = %d, want %d", l, v, workers*perWorker/labels)
		}
		total += v
	}
	if total != workers*perWorker {
		t.Fatalf("total = %d, want %d", total, workers*perWorker)
	}
}
