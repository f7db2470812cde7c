package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke builds the real zsdb, boots real servers and runs every
// workload with 0.2 s windows, then one traced run of each kind: every
// declared metric must come out for every workload, every answer must be
// correct, and no child may be left behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real zsdb servers")
	}
	e, err := prepare("..")
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll()
	check := func(cfg runCfg, declared []specMetric) {
		t.Helper()
		d, err := run(e, cfg)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
		}
		r := d.Result
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s trace=%v: correct %v, attempted %d, failed %d: %s", cfg.workload, cfg.trace, r.Correct, r.Attempted, r.Failed, d.FirstError)
		}
		if len(r.Metrics) != len(declared) {
			t.Errorf("%s trace=%v: %d metrics reported, %d declared", cfg.workload, cfg.trace, len(r.Metrics), len(declared))
		}
		for _, m := range declared {
			if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s trace=%v: metric %s reported as %+v (present %v), declared unit %s", cfg.workload, cfg.trace, m.Name, got, ok, m.Unit)
			}
		}
		if !cfg.trace {
			for _, m := range declared {
				if r.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", cfg.workload, m.Name, r.Metrics[m.Name].Value)
				}
			}
		}
		if len(d.StreamSHA256) != 64 {
			t.Errorf("%s: stream digest %q", cfg.workload, d.StreamSHA256)
		}
	}
	for _, w := range e.spec.Workloads {
		check(runCfg{workload: w.Name, seed: 1, seconds: 1}, e.spec.EndToEnd)
	}
	for _, name := range []string{"routed-singles", "fewshot-cycle"} {
		check(runCfg{workload: name, seed: 1, seconds: 2, trace: true}, e.spec.PerLayer)
		data, err := os.ReadFile(filepath.Join(e.outDir, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Fatalf("trace-%s.json: %d spans, %v", name, len(spans), err)
		}
		for i, s := range spans {
			if s.Name == "" || s.EndNs < s.StartNs || s.Parent >= i {
				t.Fatalf("trace-%s.json span %d malformed: %+v", name, i, s)
			}
		}
	}
	children.Lock()
	left := len(children.live)
	children.Unlock()
	if left != 0 {
		t.Errorf("%d child processes still tracked after the runs", left)
	}
}

// TestSpecMatchesContract checks BENCHMARK.json against the limits the
// driver refuses a benchmark for.
func TestSpecMatchesContract(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if n == "" || len(n) > 64 || seen[n] {
			t.Errorf("%s name %q is empty, too long or used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for _, m := range spec.PerLayer {
		name("per-layer", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
}
