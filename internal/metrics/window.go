package metrics

import (
	"sort"
	"sync"
)

// Window is a bounded sliding window of float64 observations with
// quantile snapshots — the drift-monitor primitive of the adaptation
// subsystem (each feedback sample's q-error lands in a per-database
// Window, and the adaptation trigger reads its p50/p95) and the
// reservoir under every LatencyRecorder. It keeps lifetime totals
// (count, sum, max) alongside the bounded reservoir the quantiles come
// from. Safe for concurrent use.
type Window struct {
	mu     sync.Mutex
	buf    []float64 // ring buffer
	next   int       // ring write position
	filled int       // valid entries
	count  int64     // lifetime observations
	sum    float64   // lifetime sum, in observation order
	max    float64   // lifetime maximum
}

// DefaultWindowSize bounds a Window when the caller passes a
// non-positive capacity.
const DefaultWindowSize = 256

// NewWindow returns an empty window holding at most capacity recent
// observations (DefaultWindowSize if capacity <= 0).
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		capacity = DefaultWindowSize
	}
	return &Window{buf: make([]float64, capacity)}
}

// Observe records one observation.
func (w *Window) Observe(x float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf[w.next] = x
	w.next = (w.next + 1) % len(w.buf)
	if w.filled < len(w.buf) {
		w.filled++
	}
	// The lifetime max seeds from the FIRST observation rather than the
	// zero value: an all-negative series (log-space residuals) would
	// otherwise report a Max of 0 that was never observed.
	if w.count == 0 || x > w.max {
		w.max = x
	}
	w.count++
	w.sum += x
}

// Reset empties the reservoir so quantiles restart from fresh
// observations; lifetime count, sum and max are kept. The adaptation loop
// resets a database's window after draining it — post-swap drift must be
// measured against the new generation, not the errors that triggered the
// swap.
func (w *Window) Reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.next = 0
	w.filled = 0
}

// WindowSummary is a point-in-time view of a Window.
type WindowSummary struct {
	// Count is the lifetime observation count; Size is the current
	// reservoir occupancy the quantiles are computed over.
	Count int64   `json:"count"`
	Size  int     `json:"size"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot summarizes the window. Quantiles cover the current reservoir;
// count and max cover all observations ever recorded. An empty reservoir
// yields zero quantiles.
//
// Only the copy is made under the lock Observe takes: the one sort the
// three quantiles share must not stall the request path.
func (w *Window) Snapshot() WindowSummary {
	s, _ := w.SnapshotSum()
	return s
}

// SnapshotSum is Snapshot plus the lifetime sum, read under the same
// lock hold as the count it is divided by.
func (w *Window) SnapshotSum() (WindowSummary, float64) {
	w.mu.Lock()
	s := WindowSummary{Count: w.count, Size: w.filled, Max: w.max}
	sum := w.sum
	recent := append([]float64(nil), w.buf[:w.filled]...)
	w.mu.Unlock()
	if len(recent) == 0 {
		return s, sum
	}
	sort.Float64s(recent)
	s.P50 = nearestRank(recent, 0.5)
	s.P95 = nearestRank(recent, 0.95)
	s.P99 = nearestRank(recent, 0.99)
	return s, sum
}
