package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestWindowQuantiles(t *testing.T) {
	w := NewWindow(100)
	if s := w.Snapshot(); s.Count != 0 || s.Size != 0 || s.P50 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	for i := 1; i <= 100; i++ {
		w.Observe(float64(i))
	}
	s := w.Snapshot()
	if s.Count != 100 || s.Size != 100 {
		t.Fatalf("count/size = %d/%d", s.Count, s.Size)
	}
	if math.Abs(s.P50-50) > 1 || math.Abs(s.P95-95) > 1 {
		t.Fatalf("p50 = %.2f p95 = %.2f, want ~50/~95", s.P50, s.P95)
	}
	if s.Max != 100 {
		t.Fatalf("max = %.2f", s.Max)
	}
}

// TestWindowSlides checks quantiles track the recent reservoir while
// count and max stay lifetime-wide.
func TestWindowSlides(t *testing.T) {
	w := NewWindow(8)
	w.Observe(1000) // ancient outlier
	for i := 0; i < 8; i++ {
		w.Observe(1)
	}
	s := w.Snapshot()
	if s.Count != 9 || s.Size != 8 {
		t.Fatalf("count/size = %d/%d", s.Count, s.Size)
	}
	if s.P95 != 1 {
		t.Fatalf("p95 = %.2f should reflect the recent window", s.P95)
	}
	if s.Max != 1000 {
		t.Fatalf("max = %.2f should keep the lifetime outlier", s.Max)
	}
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(4)
	for i := 0; i < 4; i++ {
		w.Observe(9)
	}
	w.Reset()
	if s := w.Snapshot(); s.Size != 0 || s.P50 != 0 || s.Count != 4 || s.Max != 9 {
		t.Fatalf("post-reset snapshot = %+v (reservoir should empty, lifetime stats stay)", s)
	}
	w.Observe(2)
	if s := w.Snapshot(); s.Size != 1 || s.P50 != 2 {
		t.Fatalf("post-reset observe = %+v", s)
	}
}

// TestWindowLifetimeMax pins the lifetime max against series that never
// cross zero: the max must seed from the first observation, not from
// the zero value — an all-negative window (e.g. log-space residuals)
// previously reported a Max of 0 that was never observed.
func TestWindowLifetimeMax(t *testing.T) {
	cases := []struct {
		name string
		obs  []float64
		want float64
	}{
		{"negative-only", []float64{-3.5, -1.25, -9, -1.25}, -1.25},
		{"single-negative", []float64{-7}, -7},
		{"single-positive", []float64{4.5}, 4.5},
		{"single-zero", []float64{0}, 0},
		{"descending-negative", []float64{-1, -2, -3}, -1},
		{"crosses-zero", []float64{-2, 0.5, -4}, 0.5},
		{"positive-only", []float64{1, 8, 3}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWindow(4)
			for _, x := range tc.obs {
				w.Observe(x)
			}
			if s := w.Snapshot(); s.Max != tc.want {
				t.Fatalf("max = %v, want %v (observations %v)", s.Max, tc.want, tc.obs)
			}
		})
	}

	// Reset keeps the lifetime max even when it is negative.
	w := NewWindow(4)
	w.Observe(-2)
	w.Reset()
	if s := w.Snapshot(); s.Max != -2 {
		t.Fatalf("post-reset max = %v, want -2", s.Max)
	}
}

func TestWindowDefaultCapacity(t *testing.T) {
	w := NewWindow(0)
	if len(w.buf) != DefaultWindowSize {
		t.Fatalf("capacity = %d, want %d", len(w.buf), DefaultWindowSize)
	}
}

func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w.Observe(float64(i))
				_ = w.Snapshot()
			}
		}()
	}
	wg.Wait()
	if s := w.Snapshot(); s.Count != 8*200 || s.Size != 64 {
		t.Fatalf("snapshot = %+v", s)
	}
}

// TestWindowSnapshotMatchesPercentile pins Snapshot's one shared sort to
// the quantile definition everything else uses: on generated reservoirs
// — partly filled, wrapped, with ties, signed zeros and infinities —
// its quantiles equal Percentile's bit for bit.
func TestWindowSnapshotMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, 1, -1}
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(40)
		n := 1 + rng.Intn(3*capacity)
		w := NewWindow(capacity)
		// recent mirrors the reservoir slot for slot: sorting does not
		// order a signed-zero tie, so the reference must start from the
		// same arrangement.
		recent := make([]float64, min(n, capacity))
		for i := 0; i < n; i++ {
			x := rng.NormFloat64() * 100
			if rng.Intn(4) == 0 {
				x = special[rng.Intn(len(special))]
			}
			w.Observe(x)
			recent[i%capacity] = x
		}
		s := w.Snapshot()
		for _, q := range []struct {
			name      string
			got, want float64
		}{
			{"p50", s.P50, Median(recent)},
			{"p95", s.P95, Percentile(recent, 0.95)},
			{"p99", s.P99, Percentile(recent, 0.99)},
		} {
			if math.Float64bits(q.got) != math.Float64bits(q.want) {
				t.Fatalf("trial %d (capacity %d, %d observations): %s = %v, Percentile says %v", trial, capacity, n, q.name, q.got, q.want)
			}
		}
		if s.Size != len(recent) {
			t.Fatalf("trial %d: size = %d, want %d", trial, s.Size, len(recent))
		}
	}
}
