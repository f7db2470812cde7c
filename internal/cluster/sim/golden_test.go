package sim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// goldenScenarios are seeded runs that together fire every Action —
// crash and recover, partition, slow and fast, add-replica (named and
// auto-named) — with feedback traffic throughout, plus schedule errors
// the harness must report as violations rather than act on.
func goldenScenarios() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"crash-partition-recover", Config{
			Replicas: 4, Requests: 90, Seed: 42, FeedbackEvery: 5,
			Schedule: []Event{
				{Step: 15, Action: Crash, Replica: "s1"},
				{Step: 30, Action: Partition, Replica: "s3"},
				{Step: 50, Action: Recover, Replica: "s3"},
				{Step: 70, Action: Recover, Replica: "s1"},
			},
		}},
		{"slow-fast", Config{
			Replicas: 3, Requests: 60, Seed: 11, FeedbackEvery: 4,
			CallTimeout: 5 * time.Millisecond, SlowLatency: 60 * time.Millisecond,
			Schedule: []Event{
				{Step: 10, Action: Slow, Replica: "s2"},
				{Step: 40, Action: Fast, Replica: "s2"},
			},
		}},
		{"add-replica", Config{
			Replicas: 2, Requests: 80, Seed: 5, FeedbackEvery: 3,
			Schedule: []Event{
				{Step: 20, Action: AddReplica},
				{Step: 40, Action: AddReplica, Replica: "extra"},
				{Step: 55, Action: Crash, Replica: "s2"},
				{Step: 65, Action: Recover, Replica: "s2"},
			},
		}},
		{"total-outage", Config{
			Replicas: 2, Requests: 40, Seed: 3, FeedbackEvery: 2,
			Schedule: []Event{
				{Step: 10, Action: Crash, Replica: "s0"},
				{Step: 10, Action: Partition, Replica: "s1"},
				{Step: 20, Action: Recover, Replica: "s0"},
				{Step: 25, Action: Recover, Replica: "s1"},
			},
		}},
		{"schedule-errors", Config{
			Replicas: 2, Requests: 20, Seed: 9, FeedbackEvery: 1,
			Schedule: []Event{
				{Step: 5, Action: Crash, Replica: "nobody"},
				{Step: 8, Action: AddReplica, Replica: "s0"},
			},
		}},
	}
}

// renderRun writes one finished run as text: the summary, every
// violation, every outcome, and each replica's served predictions and
// accepted feedback.
func renderRun(b *strings.Builder, s *Sim, res Result) {
	fmt.Fprintf(b, "succeeded=%d failed_expected=%d failed_lost=%d feedback_sent=%d failovers=%d\n",
		res.Succeeded, res.FailedExpected, res.FailedLost, res.FeedbackSent, res.Failovers)
	for _, v := range res.Violations {
		fmt.Fprintf(b, "violation %s\n", v)
	}
	for _, o := range res.Outcomes {
		status := "ok"
		if o.Err != nil {
			status = "err " + o.Err.Error()
		}
		fmt.Fprintf(b, "%3d %-8s up=%d runtime=%s fp=%s %s | %s\n", o.Step, o.DB, o.UpCandidates,
			strconv.FormatFloat(o.RuntimeSec, 'g', -1, 64), o.Fingerprint, o.SQL, status)
	}
	names := make([]string, 0, len(s.replicas))
	for name := range s.replicas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep := s.Replica(name).(*Replica)
		fmt.Fprintf(b, "replica %s predicts", name)
		for _, db := range s.cfg.Databases {
			fmt.Fprintf(b, " %s=%d", db, rep.Predicts(db))
		}
		b.WriteString("\n")
		for _, fb := range rep.Feedbacks() {
			fmt.Fprintf(b, "  feedback %s %s %s\n", fb.DB, fb.Fingerprint, strconv.FormatFloat(fb.ActualSec, 'g', -1, 64))
		}
	}
}

// TestSimResultsGolden pins the harness's observable behaviour —
// outcomes, violations, failover counts and where every prediction and
// feedback landed — for seeded runs covering every Action, byte for
// byte against testdata/results.golden. UPDATE_SIM_GOLDEN=1 rewrites
// the file after a deliberate change; read the diff before committing
// it.
func TestSimResultsGolden(t *testing.T) {
	var got strings.Builder
	for _, sc := range goldenScenarios() {
		s, err := New(sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run(context.Background())
		fmt.Fprintf(&got, "== %s ==\n", sc.name)
		renderRun(&got, s, res)
	}
	path := filepath.Join("testdata", "results.golden")
	if os.Getenv("UPDATE_SIM_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		w, g := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
		for i := 0; i < len(w) && i < len(g); i++ {
			if w[i] != g[i] {
				t.Fatalf("results differ from %s at line %d:\nwant %s\ngot  %s", path, i+1, w[i], g[i])
			}
		}
		t.Fatalf("results differ from %s in length: want %d lines, got %d", path, len(w), len(g))
	}
}
