package main

import (
	"sort"
	"time"
)

// numWindows is how many equal windows one measurement is cut into. Every
// end-to-end figure is the median of the per-window values, so one
// noisy-neighbour burst moves one window and not the result.
const numWindows = 5

// opSample is one completed operation on the run's clock (offsets from the
// start of the load phase).
type opSample struct {
	start, end time.Duration
	items      int
	ok         bool
}

// windowed holds the per-window series of one measurement.
type windowed struct {
	itemsPerS []float64
	p50Ms     []float64
	p95Ms     []float64
	cpuUs     []float64 // server CPU microseconds per item
	// pooled latencies (ms, sorted) of every measured operation.
	pooledMs []float64
	ops      int
}

// cut assigns samples to the windows delimited by bounds (numWindows+1
// ascending offsets) and computes each window's series. cpuUs[k] is the
// server CPU time consumed during window k, in microseconds.
//
// An operation counts towards throughput in proportion to how much of its
// duration fell inside the window, so slow operations (a 150 ms few-shot
// cycle in a 2 s window) do not quantise the rate; its latency is counted
// in the window where it completed.
func cut(samples []opSample, bounds []time.Duration, cpuUs []float64) windowed {
	n := len(bounds) - 1
	w := windowed{
		itemsPerS: make([]float64, n),
		p50Ms:     make([]float64, n),
		p95Ms:     make([]float64, n),
		cpuUs:     make([]float64, n),
	}
	lat := make([][]float64, n)
	items := make([]float64, n)
	for _, s := range samples {
		if !s.ok || s.end <= bounds[0] || s.start >= bounds[n] {
			continue
		}
		dur := s.end - s.start
		for k := 0; k < n; k++ {
			lo, hi := max(s.start, bounds[k]), min(s.end, bounds[k+1])
			if hi <= lo {
				continue
			}
			share := 1.0
			if dur > 0 {
				share = float64(hi-lo) / float64(dur)
			}
			items[k] += share * float64(s.items)
		}
		if s.end > bounds[n] {
			continue
		}
		k := sort.Search(n, func(k int) bool { return s.end <= bounds[k+1] })
		ms := float64(dur) / float64(time.Millisecond)
		lat[k] = append(lat[k], ms)
		w.pooledMs = append(w.pooledMs, ms)
		w.ops++
	}
	sort.Float64s(w.pooledMs)
	for k := 0; k < n; k++ {
		sort.Float64s(lat[k])
		w.itemsPerS[k] = items[k] / (bounds[k+1] - bounds[k]).Seconds()
		w.p50Ms[k] = percentile(lat[k], 0.50)
		w.p95Ms[k] = percentile(lat[k], 0.95)
		if items[k] > 0 {
			w.cpuUs[k] = cpuUs[k] / items[k]
		}
	}
	return w
}

// tail is the run's p95: the median of the per-window p95s when every
// window holds enough operations for one (tailMargin beyond the 95th
// percentile needs 200), otherwise the margin-capped p95 of the pooled
// operations. Slow operations (what-if sweeps, few-shot cycles) take the
// second branch.
func (w windowed) tail() float64 {
	if w.ops < len(w.p95Ms)*20*tailMargin {
		return percentile(w.pooledMs, 0.95)
	}
	return median(w.p95Ms)
}

func equalBounds(from, to time.Duration, n int) []time.Duration {
	b := make([]time.Duration, n+1)
	for k := range b {
		b[k] = from + (to-from)*time.Duration(k)/time.Duration(n)
	}
	return b
}
