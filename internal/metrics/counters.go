package metrics

import (
	"sync/atomic"
	"time"
)

// This file holds the serving-side observability primitives: cheap,
// goroutine-safe counters the prediction service aggregates into its
// /v1/stats endpoint. They are deliberately simple — atomic counters and a
// bounded reservoir of recent latencies — so recording on the request hot
// path costs nanoseconds.

// Counter is a goroutine-safe monotonic event counter.
type Counter struct {
	n atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// HitCounter tracks a hit/miss ratio (e.g. a cache's).
type HitCounter struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// HitN records n hits in one atomic add — for call sites that resolve a
// whole batch to the same outcome.
func (h *HitCounter) HitN(n int64) { h.hits.Add(n) }

// Miss records one miss.
func (h *HitCounter) Miss() { h.misses.Add(1) }

// HitRate summarizes a HitCounter.
type HitRate struct {
	Hits   int64   `json:"hits"`
	Misses int64   `json:"misses"`
	Rate   float64 `json:"rate"`
}

// Snapshot returns the current hit/miss totals and rate (0 when empty).
func (h *HitCounter) Snapshot() HitRate {
	hits, misses := h.hits.Load(), h.misses.Load()
	r := HitRate{Hits: hits, Misses: misses}
	if total := hits + misses; total > 0 {
		r.Rate = float64(hits) / float64(total)
	}
	return r
}

// latencyWindow bounds the reservoir of recent observations a
// LatencyRecorder keeps for quantile estimates. Totals (count, sum, max)
// cover the recorder's whole lifetime.
const latencyWindow = 1024

// LatencyRecorder records operation latencies: lifetime count/mean/max
// plus p50/p95 over the most recent observations. It is one Window of
// seconds, built on first use, so an Observe takes one lock. The zero
// value is ready to use.
type LatencyRecorder struct {
	w atomic.Pointer[Window]
}

// Observe records one operation latency.
func (l *LatencyRecorder) Observe(d time.Duration) {
	w := l.w.Load()
	if w == nil {
		// Racing first observers build one Window each; one wins.
		l.w.CompareAndSwap(nil, NewWindow(latencyWindow))
		w = l.w.Load()
	}
	w.Observe(d.Seconds())
}

// LatencySummary is a point-in-time view of a LatencyRecorder, in
// milliseconds (the natural unit of serving latencies).
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Snapshot summarizes the recorder. Quantiles come from the recent
// window; count, mean and max cover all observations ever recorded.
// Durations are never negative, so the Window's max (seeded from the
// first observation) is the max over zero and every observation.
func (l *LatencyRecorder) Snapshot() LatencySummary {
	w := l.w.Load()
	if w == nil {
		return LatencySummary{}
	}
	ws, sum := w.SnapshotSum()
	if ws.Count == 0 {
		// Built by a first Observe that has not recorded yet.
		return LatencySummary{}
	}
	const toMs = 1e3
	return LatencySummary{
		Count:  ws.Count,
		MeanMs: sum / float64(ws.Count) * toMs,
		P50Ms:  ws.P50 * toMs,
		P95Ms:  ws.P95 * toMs,
		P99Ms:  ws.P99 * toMs,
		MaxMs:  ws.Max * toMs,
	}
}
