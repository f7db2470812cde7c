package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 500}, {0.95, 950}, {0.99, 990}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// A tail percentile is only reported where at least tailMargin samples lie
// beyond it; with fewer it is lowered, and never below the median.
func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p99 of 100 samples would leave one sample beyond it: lowered to 90.
	if got := percentile(xs, 0.99); got != 90 {
		t.Errorf("p99 of 100 samples = %v, want 90 (10 samples beyond)", got)
	}
	// p50 has plenty beyond it and is untouched.
	if got := percentile(xs, 0.50); got != 50 {
		t.Errorf("p50 of 100 samples = %v, want 50", got)
	}
	// 12 samples cannot spare 10: the cap stops at the median.
	if got := percentile(xs[:12], 0.95); got != 6 {
		t.Errorf("p95 of 12 samples = %v, want the median 6", got)
	}
	if got := percentile(nil, 0.95); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestTrimmedMeanDropsTheStall(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 10
	}
	xs[17] = 300_000 // one descheduling
	if got := trimmedMean(xs); got != 10 {
		t.Errorf("trimmedMean = %v, want 10", got)
	}
}

// Five windows, one of them hit by a burst: the reported figure is the
// median window, not the mean.
func TestMedianOfWindows(t *testing.T) {
	const win = time.Second
	bounds := equalBounds(win, 6*win, numWindows) // 1 s of warm-up, discarded
	var samples []opSample
	add := func(from time.Duration, n int, lat time.Duration) {
		for i := 0; i < n; i++ {
			start := from + time.Duration(i)*win/time.Duration(n)
			samples = append(samples, opSample{start: start, end: start + lat, items: 1, ok: true})
		}
	}
	add(0, 500, time.Millisecond) // warm-up: must not count
	for k := 0; k < numWindows; k++ {
		n, lat := 1000, time.Millisecond/2
		if k == 2 {
			n, lat = 400, 2*time.Millisecond // the noisy window
		}
		add(win+time.Duration(k)*win, n, lat)
	}
	cpu := []float64{1e5, 1e5, 1e5, 1e5, 1e5}
	w := cut(samples, bounds, cpu)
	if got := median(w.itemsPerS); math.Abs(got-1000) > 1 {
		t.Errorf("median items/s = %v, want 1000 (windows %v)", got, w.itemsPerS)
	}
	if got := median(w.p50Ms); got != 0.5 {
		t.Errorf("median p50 = %v ms, want 0.5 (windows %v)", got, w.p50Ms)
	}
	if math.Abs(w.itemsPerS[2]-400) > 1 || w.p50Ms[2] != 2 {
		t.Errorf("noisy window: %v items/s, p50 %v ms", w.itemsPerS[2], w.p50Ms[2])
	}
	if got := median(w.cpuUs); math.Abs(got-100) > 0.2 {
		t.Errorf("median cpu = %v us/item, want 100", got)
	}
	if w.ops != 4400 {
		t.Errorf("measured ops = %d, want 4400 (warm-up excluded)", w.ops)
	}
}

// An operation spanning a window edge counts towards each window in
// proportion, and a failed one not at all.
func TestCutSharesSlowOperations(t *testing.T) {
	bounds := []time.Duration{0, time.Second, 2 * time.Second}
	samples := []opSample{
		{start: 500 * time.Millisecond, end: 1500 * time.Millisecond, items: 128, ok: true},
		{start: 100 * time.Millisecond, end: 200 * time.Millisecond, items: 128, ok: false},
	}
	w := cut(samples, bounds, []float64{0, 0})
	if w.itemsPerS[0] != 64 || w.itemsPerS[1] != 64 {
		t.Errorf("items/s = %v, want 64 in each window", w.itemsPerS)
	}
	if w.ops != 1 || w.p50Ms[1] != 1000 {
		t.Errorf("ops %d, second-window p50 %v: the latency belongs where the operation completed", w.ops, w.p50Ms[1])
	}
}

func TestTailPoolsSlowOperations(t *testing.T) {
	// 60 operations over five windows cannot give per-window p95s.
	var w windowed
	for i := 1; i <= 60; i++ {
		w.pooledMs = append(w.pooledMs, float64(i))
	}
	w.ops, w.p95Ms = 60, []float64{12, 24, 36, 48, 60}
	if got := w.tail(); got != 50 {
		t.Errorf("tail = %v, want 50: the pooled p95 lowered to keep 10 samples beyond", got)
	}
	w.ops = 5000
	if got := w.tail(); got != 36 {
		t.Errorf("tail = %v, want the median window's 36", got)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "request", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "parse", StartNs: 10, EndNs: 30, Parent: 0},
		{Name: "predict", StartNs: 40, EndNs: 90, Parent: 0},
		{Name: "pack", StartNs: 50, EndNs: 60, Parent: 2},
		// Two overlapping children of predict, one reaching past its end:
		// their union inside predict is [55, 90].
		{Name: "shard0", StartNs: 55, EndNs: 80, Parent: 2},
		{Name: "shard1", StartNs: 70, EndNs: 95, Parent: 2},
	}
	self := selfTimes(spans)
	want := []int64{100 - 20 - 50, 20, 50 - (90 - 50), 10, 25, 25}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestRecorderParentsAndNilSafety(t *testing.T) {
	r := newRecorder()
	r.call("request", 7, func() {
		r.call("parse", 7, func() {})
		r.call("predict", 7, func() { r.call("pack", 7, func() {}) })
	})
	parents := []int{-1, 0, 0, 2}
	for i, s := range r.spans {
		if s.Parent != parents[i] || s.Req != 7 || s.EndNs < s.StartNs {
			t.Errorf("span %d %+v: want parent %d, req 7", i, s, parents[i])
		}
	}
	ran := false
	(*recorder)(nil).call("x", 0, func() { ran = true })
	if !ran {
		t.Error("a nil recorder must still run the call")
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4728 (zsdb (serve) x) S 1 4728 4728 0 -1 4194560 2100 0 0 0 1234 566 0 0 20 0 7 0 8841 1261584384 17421 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0"
	us, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(1234+566) * 1e6 / userHz; us != want {
		t.Errorf("cpu = %v us, want %v", us, want)
	}
	if _, err := parseStatCPU("4728 zsdb S 1"); err == nil {
		t.Error("a stat line without a command name must not parse")
	}
	if _, err := parseStatCPU("1 (x) S 1 2 3"); err == nil {
		t.Error("a truncated stat line must not parse")
	}
}

func TestParseProcStatus(t *testing.T) {
	status := "Name:\tzsdb\nVmPeak:\t 1232016 kB\nVmHWM:\t   69684 kB\nVmRSS:\t   60000 kB\n"
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 69684 {
		t.Errorf("VmHWM = %v, %v; want 69684", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing field must be an error")
	}
}

func TestQError(t *testing.T) {
	if got := qerror(2, 1); got != 2 {
		t.Errorf("qerror(2,1) = %v", got)
	}
	if got := qerror(1, 4); got != 4 {
		t.Errorf("qerror(1,4) = %v", got)
	}
}
