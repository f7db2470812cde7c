package main

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// runCfg is one run as the driver asks for it.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// warmup is the discarded lead-in: pools are pre-warmed explicitly at
// boot, so this only has to settle connections, the scheduler and the GC.
func (c runCfg) warmup() time.Duration {
	return time.Duration(min(1, c.seconds/5) * float64(time.Second))
}

func (c runCfg) measureFor() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// setupRounds is how many times a timed run sets its workload up; setup_s
// is the median, and the last round's topology is the one measured.
const setupRounds = 3

// Headroom for pre-generated fresh statements, in operations per second of
// load; a faster server falls back to generating on the fly.
const (
	coldOpsPerS  = 4500
	sweepOpsPerS = 150
)

// detail is everything a run learnt beyond the declared metrics; it goes
// to the result file and, abridged, to standard error.
type detail struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Trace        bool               `json:"trace"`
	Host         hostInfo           `json:"host"`
	StreamSHA256 string             `json:"stream_sha256"`
	Phases       map[string][2]int  `json:"ops_attempted_failed_by_phase"`
	FirstError   string             `json:"first_error,omitempty"`
	Windows      map[string]windowS `json:"windows,omitempty"`
	Extra        map[string]float64 `json:"extra,omitempty"`
	Result       result             `json:"result"`
}

// windowS is one end-to-end metric's per-window series beside the median
// that was reported.
type windowS struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func series(xs []float64) windowS {
	s := sortedCopy(xs)
	return windowS{Median: median(xs), Min: s[0], Max: s[len(s)-1], Values: xs}
}

// phases collects the per-phase operation counts of a run.
type phases struct {
	names []string
	by    map[string]phase
}

func (p *phases) add(name string, ph phase) {
	if p.by == nil {
		p.by = map[string]phase{}
	}
	if _, ok := p.by[name]; !ok {
		p.names = append(p.names, name)
	}
	cur := p.by[name]
	cur.add(ph)
	p.by[name] = cur
}

func (p *phases) total() phase {
	var t phase
	for _, name := range p.names {
		t.add(p.by[name])
	}
	return t
}

func (p *phases) fill(d *detail) {
	d.Phases = map[string][2]int{}
	for _, name := range p.names {
		d.Phases[name] = [2]int{p.by[name].attempted, p.by[name].failed}
	}
	if err := p.total().firstErr; err != nil {
		d.FirstError = err.Error()
	}
}

// run executes one workload once, timed or traced, and returns the result
// line with the detail behind it.
func run(e *env, cfg runCfg) (*detail, error) {
	d := &detail{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Host: e.host}
	var values map[string]float64
	var ph phases
	var err error
	declared := e.spec.EndToEnd
	switch {
	case cfg.trace:
		declared = e.spec.PerLayer
		values, err = runTraced(e, cfg, d, &ph)
	case cfg.workload == "fewshot-cycle":
		values, err = runFewshot(e, cfg, d, &ph)
	default:
		values, err = runHTTP(e, cfg, d, &ph)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	ph.fill(d)
	total := ph.total()
	d.Result = result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed}
	if d.Result.Metrics, err = report(declared, values); err != nil {
		return nil, err
	}
	return d, nil
}

// endToEnd turns a measured phase into the declared end-to-end values and
// records the per-window series beside them.
func endToEnd(d *detail, m measured, setups []float64, rssMB, qerr float64) map[string]float64 {
	w := m.win
	d.Windows = map[string]windowS{
		"items_per_s":            series(w.itemsPerS),
		"lat_p50_ms":             series(w.p50Ms),
		"lat_p95_ms":             series(w.p95Ms),
		"server_cpu_us_per_item": series(w.cpuUs),
		"setup_s":                series(setups),
	}
	d.Extra = map[string]float64{
		"lat_p95_ms":       w.tail(),
		"lat_p99_ms":       percentile(w.pooledMs, 0.99),
		"lat_max_ms":       w.pooledMs[len(w.pooledMs)-1],
		"window_spread":    spread(w.p50Ms),
		"client_cpu_share": m.clientShare,
		"steal_pct":        m.stealPct,
		"measured_ops":     float64(w.ops),
	}
	return map[string]float64{
		"items_per_s":            median(w.itemsPerS),
		"lat_p50_ms":             median(w.p50Ms),
		"server_cpu_us_per_item": median(w.cpuUs),
		"rss_peak_mb":            rssMB,
		"setup_s":                median(setups),
		"qerror_p50":             qerr,
	}
}

// runHTTP is a timed run of one of the five HTTP workloads.
func runHTTP(e *env, cfg runCfg, d *detail, ph *phases) (map[string]float64, error) {
	total := cfg.warmup() + cfg.measureFor()
	expected := 0
	switch cfg.workload {
	case "cold-singles":
		expected = int(coldOpsPerS * total.Seconds())
	case "whatif-sweep":
		expected = int(sweepOpsPerS * total.Seconds())
	}
	w, err := newHTTPWorkload(e, cfg.workload, cfg.seed, expected)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(e, strings.Split(w.databases, ","))
	if err != nil {
		return nil, err
	}
	defer ref.Close()

	var t *topology
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		if t != nil {
			t.stop()
		}
		start := time.Now()
		var warm phase
		if t, warm, err = w.boot(e, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		ph.add("prewarm", warm)
	}
	defer t.stop()

	m, err := measureHTTP(t, w.stream, w.conns, cfg.warmup(), cfg.measureFor())
	if err != nil {
		return nil, err
	}
	ph.add("load", m.ph)
	rss, err := peakRSSMB(t.pids())
	if err != nil {
		return nil, err
	}
	qerr, acc := servedQError(t, w, e.truth)
	ph.add("accuracy", acc)
	t.stop()
	ph.add("verify", checkKept(ref, m.kept))
	d.StreamSHA256 = w.stream.digest()
	return endToEnd(d, m, setups, rss, qerr), nil
}

// runFewshot is a timed run of the in-process few-shot cycle. Its server
// is this process: CPU and memory are the harness's own.
func runFewshot(e *env, cfg runCfg, d *detail, ph *phases) (map[string]float64, error) {
	var f *fewshot
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		if f != nil {
			f.close()
		}
		start := time.Now()
		var err error
		if f, err = newFewshot(e); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer f.close()

	s, next := fewshotStream(f.pool, cfg.seed)
	m, qerrs, err := measureFewshot(f, next, cfg.warmup(), cfg.measureFor())
	if err != nil {
		return nil, err
	}
	ph.add("load", m.ph)
	var measuredQ []float64
	for i, smp := range m.samples {
		if smp.ok && smp.end > cfg.warmup() {
			measuredQ = append(measuredQ, qerrs[i])
		}
	}
	rss, err := peakRSSMB([]int{os.Getpid()})
	if err != nil {
		return nil, err
	}
	d.StreamSHA256 = s.digest()
	return endToEnd(d, m, setups, rss, median(measuredQ)), nil
}
