package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*100 {
		t.Fatalf("counter = %d, want %d", got, 8*100)
	}
}

func TestHitCounter(t *testing.T) {
	var h HitCounter
	if r := h.Snapshot(); r.Rate != 0 || r.Hits != 0 || r.Misses != 0 {
		t.Fatalf("empty snapshot = %+v", r)
	}
	h.HitN(1)
	h.HitN(2)
	h.Miss()
	r := h.Snapshot()
	if r.Hits != 3 || r.Misses != 1 || math.Abs(r.Rate-0.75) > 1e-12 {
		t.Fatalf("snapshot = %+v, want 3 hits / 1 miss / rate 0.75", r)
	}
}

func TestLatencyRecorder(t *testing.T) {
	var l LatencyRecorder
	if s := l.Snapshot(); s.Count != 0 || s.P95Ms != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	// 100 observations of 1ms..100ms.
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	s := l.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.P50Ms-50) > 1 || math.Abs(s.P95Ms-95) > 1 {
		t.Fatalf("p50 = %.2fms p95 = %.2fms, want ~50/~95", s.P50Ms, s.P95Ms)
	}
	if math.Abs(s.MaxMs-100) > 1e-9 || math.Abs(s.MeanMs-50.5) > 1e-9 {
		t.Fatalf("max = %.2fms mean = %.2fms, want 100/50.5", s.MaxMs, s.MeanMs)
	}
}

// TestLatencyRecorderWindow checks that quantiles track the recent window
// while count and max stay lifetime-wide.
func TestLatencyRecorderWindow(t *testing.T) {
	var l LatencyRecorder
	l.Observe(10 * time.Second) // ancient outlier
	for i := 0; i < latencyWindow; i++ {
		l.Observe(time.Millisecond)
	}
	s := l.Snapshot()
	if s.Count != latencyWindow+1 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P95Ms > 2 {
		t.Fatalf("p95 = %.2fms should reflect the recent 1ms window", s.P95Ms)
	}
	if math.Abs(s.MaxMs-10000) > 1e-6 {
		t.Fatalf("max = %.2fms should keep the lifetime outlier", s.MaxMs)
	}
}

func TestLatencyRecorderConcurrent(t *testing.T) {
	var l LatencyRecorder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.Observe(time.Microsecond)
				_ = l.Snapshot()
			}
		}()
	}
	wg.Wait()
	if s := l.Snapshot(); s.Count != 8*200 {
		t.Fatalf("count = %d, want %d", s.Count, 8*200)
	}
}

// TestLatencyRecorderMatchesReference holds Snapshot bit for bit to a
// reference computed here over random sequences of 1 to 3 000 durations:
// the mean is the sequential sum of seconds over the count, the max is
// the lifetime maximum, and p50/p95/p99 are nearest-rank over the last
// 1 024 observations, all scaled to milliseconds.
func TestLatencyRecorderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		if trial == 0 {
			n = 1
		}
		var l LatencyRecorder
		secs := make([]float64, n)
		sum, peak := 0.0, 0.0
		for i := range secs {
			// Magnitudes from nanoseconds to seconds, with some zeros.
			d := time.Duration(rng.Int63n(int64(time.Microsecond) << uint(rng.Intn(21))))
			if rng.Intn(16) == 0 {
				d = 0
			}
			l.Observe(d)
			secs[i] = d.Seconds()
			sum += secs[i]
			if secs[i] > peak {
				peak = secs[i]
			}
		}
		recent := append([]float64(nil), secs[len(secs)-min(len(secs), 1024):]...)
		sort.Float64s(recent)
		rank := func(p float64) float64 {
			return recent[max(int(math.Ceil(p*float64(len(recent))))-1, 0)]
		}
		const toMs = 1e3
		want := LatencySummary{
			Count:  int64(n),
			MeanMs: sum / float64(n) * toMs,
			P50Ms:  rank(0.5) * toMs,
			P95Ms:  rank(0.95) * toMs,
			P99Ms:  rank(0.99) * toMs,
			MaxMs:  peak * toMs,
		}
		if got := l.Snapshot(); got != want {
			t.Fatalf("trial %d (%d observations): snapshot = %+v, want %+v", trial, n, got, want)
		}
	}
}
