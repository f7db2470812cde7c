package main

import (
	"fmt"
	"os"
)

// suite runs every declared workload, timed and then traced, and prints
// every metric by name and unit. With repeat > 1 the timed set runs that
// many times back to back and consecutive sets must agree within each
// metric's bound: the check that decides whether a metric is steady enough
// to stay end-to-end. It returns the process exit code.
func suite(e *env, cfg runCfg, repeat int) (int, error) {
	code := 0
	if err := checkStreams(e, cfg.seed); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	one := func(workload string, trace bool) (*detail, error) {
		c := cfg
		c.workload, c.trace = workload, trace
		d, err := run(e, c)
		if err != nil {
			return nil, err
		}
		d.print(os.Stdout)
		if !d.Result.Correct {
			code = 1
		}
		return d, e.save(d)
	}
	var sets []map[string]*detail
	for set := 0; set < repeat; set++ {
		timed := map[string]*detail{}
		for _, w := range e.spec.Workloads {
			d, err := one(w.Name, false)
			if err != nil {
				return 1, err
			}
			timed[w.Name] = d
		}
		sets = append(sets, timed)
	}
	for _, w := range e.spec.Workloads {
		if _, err := one(w.Name, true); err != nil {
			return 1, err
		}
	}
	for i := 1; i < len(sets); i++ {
		for _, line := range disagreements(e.spec, sets[i-1], sets[i]) {
			fmt.Printf("repeat check: sets %d and %d: %s\n", i, i+1, line)
			code = 1
		}
	}
	if repeat > 1 && code == 0 {
		fmt.Printf("repeat check: %d sets agree within every bound\n", repeat)
	}
	return code, nil
}

// disagreements lists every (workload, end-to-end metric) whose value
// worsened or improved between two sets by more than the metric's bound,
// relative to the first set.
func disagreements(spec *benchSpec, a, b map[string]*detail) []string {
	var out []string
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name].Result.Metrics[m.Name].Value, b[w.Name].Result.Metrics[m.Name].Value
			if va == 0 {
				continue
			}
			if rel := (vb - va) / va; rel > m.Bound || rel < -m.Bound {
				out = append(out, fmt.Sprintf("%s %s: %.4f vs %.4f %s (%+.1f%%, bound %.0f%%)",
					w.Name, m.Name, va, vb, m.Unit, 100*rel, 100*m.Bound))
			}
		}
	}
	return out
}

// streamDigest generates the named workload's request stream for seed and
// returns its identity.
func streamDigest(e *env, workload string, seed int64) (string, error) {
	if workload == "fewshot-cycle" {
		s, _ := fewshotStream(e.truth[:feedbackPool], seed)
		return s.digest(), nil
	}
	w, err := newHTTPWorkload(e, workload, seed, 0)
	if err != nil {
		return "", err
	}
	return w.stream.digest(), nil
}

// checkStreams asserts that a seed fixes every workload's request stream
// byte for byte and that another seed gives another stream.
func checkStreams(e *env, seed int64) error {
	for _, w := range e.spec.Workloads {
		a, err := streamDigest(e, w.Name, seed)
		if err != nil {
			return err
		}
		b, _ := streamDigest(e, w.Name, seed)
		c, _ := streamDigest(e, w.Name, seed+1)
		if a != b {
			return fmt.Errorf("%s: seed %d gave two different request streams (%s, %s)", w.Name, seed, a, b)
		}
		if a == c {
			return fmt.Errorf("%s: seeds %d and %d gave the same request stream", w.Name, seed, seed+1)
		}
	}
	return nil
}
