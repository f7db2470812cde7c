// Command bench is the repository's benchmark: it builds cmd/zsdb, boots
// each shipped topology as child processes on loopback, drives them closed
// loop, checks every answer, and reports the metrics BENCHMARK.json
// declares — end to end with --trace 0, layer by layer with --trace 1.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var cfg runCfg
	traceFlag := flag.Int("trace", 0, "0: timed run reporting the end-to-end metrics; 1: traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (empty: the whole suite, timed then traced)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request streams (the model and the pools never depend on it)")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measurement time of one run (0: run_seconds from BENCHMARK.json)")
	repeat := flag.Int("repeat", 1, "suite only: run the timed set this many times and fail if two sets differ by more than a metric's bound")
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	cfg.trace = *traceFlag != 0

	reapOnSignal()
	code, err := realMain(*root, cfg, *repeat)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func realMain(root string, cfg runCfg, repeat int) (int, error) {
	e, err := prepare(root)
	if err != nil {
		return 1, err
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(e.spec.RunSeconds)
	}
	if cfg.workload == "" {
		return suite(e, cfg, repeat)
	}
	if !e.declares(cfg.workload) {
		return 1, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	d, err := run(e, cfg)
	if err != nil {
		return 1, err
	}
	if err := e.save(d); err != nil {
		return 1, err
	}
	d.print(os.Stderr)
	// The result line carries the verdict; the exit code stays 0 so the
	// driver reads it.
	line, err := json.Marshal(d.Result)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return 0, nil
}

func (e *env) declares(workload string) bool {
	for _, w := range e.spec.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

// save writes the run's detail beside the trace files.
func (e *env) save(d *detail) error {
	name := "result-" + d.Workload + ".json"
	if d.Trace {
		name = "result-" + d.Workload + "-trace.json"
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, name), data, 0o644)
}

// print lists every reported metric by name and unit, with the context a
// reader needs to judge it.
func (d *detail) print(w *os.File) {
	mode := "timed"
	if d.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (%s, seed %d, %gs): attempted %d, failed %d, correct %v\n",
		d.Workload, mode, d.Seed, d.Seconds, d.Result.Attempted, d.Result.Failed, d.Result.Correct)
	h := d.Host
	fmt.Fprintf(w, "  host: nproc %d, GOMAXPROCS %d, %s, commit %s, load %.2f, foreign zsdb %d, noisy %v\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.LoadAvg1, h.ForeignZsdb, h.Noisy)
	fmt.Fprintf(w, "  stream sha256 %s; ops attempted/failed by phase %v\n", d.StreamSHA256, d.Phases)
	if d.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", d.FirstError)
	}
	for _, name := range sortedKeys(d.Result.Metrics) {
		m := d.Result.Metrics[name]
		line := fmt.Sprintf("  %-44s %14.4f %s", name, m.Value, m.Unit)
		if s, ok := d.Windows[name]; ok {
			line += fmt.Sprintf("   (windows min %.4f max %.4f)", s.Min, s.Max)
		}
		fmt.Fprintln(w, line)
	}
	for _, name := range sortedKeys(d.Extra) {
		fmt.Fprintf(w, "  %-44s %14.4f\n", "extra."+name, d.Extra[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
