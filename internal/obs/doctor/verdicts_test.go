package doctor

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// The fixtures below are marshaled from the types the servers encode
// their documents from, so a fixture cannot drift from the wire.

// fixedNow stamps every fixture: the goldens hold rendered clock spreads.
var fixedNow = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// servingStats is one session's /v1/stats body that passes every
// serving-level check.
func servingStats(at time.Time) serving.Stats {
	return serving.Stats{
		CollectedAt: at,
		UptimeSec:   12.5,
		Requests:    1000,
		Predict:     metrics.LatencySummary{Count: 1000, MeanMs: 1.2, P50Ms: 1, P95Ms: 2, P99Ms: 3, MaxMs: 9},
		Scheduler: serving.SchedulerStats{
			Batches: 400, Items: 1000, MeanBatchSize: 2.5, MaxBatchSize: 8,
			BatchSizes: metrics.WindowSummary{Count: 400, Size: 64, P50: 2, P95: 6, P99: 8, Max: 8},
		},
		Databases: []serving.DatabaseStats{{
			Database:  "imdb",
			PlanCache: costmodel.PlanCacheStats{Hits: 900, Misses: 100, Size: 100, Capacity: 4096},
		}},
	}
}

// clusterStats is a router's /v1/stats body over n healthy replicas.
func clusterStats(at time.Time, n int) cluster.ClusterStats {
	st := cluster.ClusterStats{CollectedAt: at, Requests: int64(1000 * n)}
	for i := 0; i < n; i++ {
		sv := servingStats(at.Add(time.Duration(i) * time.Millisecond))
		st.Replicas = append(st.Replicas, cluster.ReplicaStats{
			Name: fmt.Sprintf("r%d", i), Healthy: true, Served: 1000, Serving: &sv,
		})
	}
	return st
}

// healthyRing is a three-replica /v1/cluster body whose owners head
// their routes.
func healthyRing() cluster.RingView {
	return cluster.RingView{
		Replicas: []string{"r0", "r1", "r2"},
		Healthy:  map[string]bool{"r0": true, "r1": true, "r2": true},
		Owners:   map[string]string{"imdb": "r0", "ssb": "r2"},
		Routes:   map[string][]string{"imdb": {"r0", "r1", "r2"}, "ssb": {"r2", "r0", "r1"}},
	}
}

// adaptStatus is a /v1/adapt/status body with one imdb drift window.
func adaptStatus(p50 float64, size int) adapt.Status {
	return adapt.Status{
		Model:    "zeroshot",
		Feedback: int64(size),
		Windows: []adapt.WindowStatus{{
			Database: "imdb",
			Total:    int64(size),
			QError:   metrics.WindowSummary{Count: int64(size), Size: size, P50: p50, P95: p50 * 2, P99: p50 * 2.5, Max: p50 * 3},
		}},
	}
}

// bundlesDocOf is a /v1/bundles body: a store holding revisions 1..head
// and each named replica's activated revision.
func bundlesDocOf(head int64, replicas map[string]int64) map[string]any {
	revs := []bundle.Manifest{}
	for r := int64(1); r <= head; r++ {
		revs = append(revs, bundle.Manifest{Estimator: "zeroshot", Revision: r, CreatedAt: fixedNow})
	}
	sts := map[string]bundle.Status{}
	for name, rev := range replicas {
		sts[name] = bundle.Status{Estimator: "zeroshot", Revision: rev, Polls: 4}
	}
	return map[string]any{"estimator": "zeroshot", "retain": 5, "revisions": revs, "replicas": sts}
}

// eventsDocOf is a /v1/events body advertising head over the given
// sequence numbers.
func eventsDocOf(head int64, seqs ...int64) map[string]any {
	events := []obs.Event{}
	for _, s := range seqs {
		events = append(events, obs.Event{Seq: s, Time: fixedNow, Type: "swap", Origin: "local"})
	}
	return map[string]any{"head": head, "events": events}
}

// oneTarget wraps a single capture as a bundle.
func oneTarget(t *testing.T, name string, docs map[string]any) *Bundle {
	c := mkCapture(t, name, docs)
	return &Bundle{Meta: Meta{Tool: "zsdb doctor", CollectedAt: fixedNow, Targets: []Target{c.Target}}, Captures: []Capture{c}}
}

// withStats is oneTarget over a healthy session whose stats edit has
// altered.
func withStats(t *testing.T, edit func(*serving.Stats)) *Bundle {
	st := servingStats(fixedNow)
	edit(&st)
	return oneTarget(t, "server", map[string]any{"stats": st})
}

// uncaptured is a target none of whose documents were captured with a
// 200: d describes each attempt (nil: never attempted).
func uncaptured(name string, d *Doc) *Bundle {
	c := Capture{Target: Target{Name: name, BaseURL: "http://" + name}, Docs: map[string]*Doc{}}
	if d != nil {
		for _, ep := range Endpoints {
			attempt := *d
			attempt.Name = ep.Name
			c.Docs[ep.Name] = &attempt
		}
	}
	return &Bundle{Meta: Meta{Targets: []Target{c.Target}}, Captures: []Capture{c}}
}

// verdictFixtures is one deterministic bundle per rung of every check:
// the healthy shapes of each topology, then each way a check can warn,
// fail or decline to judge.
func verdictFixtures(t *testing.T) []struct {
	name string
	b    *Bundle
} {
	downStats := clusterStats(fixedNow, 3)
	downStats.Replicas[1] = cluster.ReplicaStats{Name: "r1", Failed: 7, Error: "r1: session closed"}
	downRing := healthyRing()
	downRing.Healthy["r1"] = false
	downRing.Healthy["r2"] = false

	tornRing := healthyRing()
	tornRing.Owners["tpch"] = "r1"
	tornRing.Routes["imdb"] = []string{"r1", "r0", "r9"}

	undecodable := mkCapture(t, "server", map[string]any{"stats": servingStats(fixedNow)})
	undecodable.Docs["stats"].Body = []byte(`[]`)
	undecodable.Docs["events"] = &Doc{Name: "events", Code: 200, Body: []byte(`{"head":`)}

	return []struct {
		name string
		b    *Bundle
	}{
		{"healthy single node", oneTarget(t, "server", map[string]any{
			"stats":   servingStats(fixedNow),
			"adapt":   adaptStatus(1.2, 50),
			"bundles": bundlesDocOf(3, map[string]int64{"local": 3}),
			"events":  eventsDocOf(3, 1, 2, 3),
		})},
		{"healthy 3-replica cluster", oneTarget(t, "cluster", map[string]any{
			"stats":   clusterStats(fixedNow, 3),
			"cluster": healthyRing(),
			"adapt": map[string]any{"replicas": map[string]adapt.Status{
				"r0": adaptStatus(1.1, 40), "r1": adaptStatus(1.3, 12), "r2": adaptStatus(9, 2)}},
			"bundles": bundlesDocOf(2, map[string]int64{"r0": 2, "r1": 2, "r2": 2}),
			"events":  eventsDocOf(40, 38, 39, 40),
		})},
		{"single node, optional tiers off, no traffic", withStats(t, func(st *serving.Stats) {
			*st = serving.Stats{CollectedAt: fixedNow}
		})},
		{"replica down", oneTarget(t, "cluster", map[string]any{"stats": downStats, "cluster": downRing})},
		{"ring disagreement", oneTarget(t, "router", map[string]any{"cluster": tornRing})},
		{"bundle store empty", oneTarget(t, "server", map[string]any{
			"bundles": bundlesDocOf(0, map[string]int64{"local": 0})})},
		{"generation lag warn", oneTarget(t, "cluster", map[string]any{
			"bundles": bundlesDocOf(3, map[string]int64{"r0": 3, "r1": 2, "r2": 3})})},
		{"generation lag fail", oneTarget(t, "cluster", map[string]any{
			"bundles": bundlesDocOf(3, map[string]int64{"r0": 2, "r1": 3, "r2": 1})})},
		{"q-error warn", oneTarget(t, "server", map[string]any{"adapt": adaptStatus(2, 50)})},
		{"q-error fail", oneTarget(t, "server", map[string]any{"adapt": adaptStatus(5, 50)})},
		{"q-error too few samples", oneTarget(t, "server", map[string]any{"adapt": adaptStatus(5, 3)})},
		{"cold cache", withStats(t, func(st *serving.Stats) {
			st.Databases[0].PlanCache = costmodel.PlanCacheStats{Misses: 10}
		})},
		{"low-hit caches", withStats(t, func(st *serving.Stats) {
			st.Databases[0].PlanCache = costmodel.PlanCacheStats{Hits: 5, Misses: 95}
			st.Databases[0].WhatIfCache = &costmodel.PlanCacheStats{Hits: 10, Misses: 90}
			st.Databases = append(st.Databases, serving.DatabaseStats{
				Database: "ssb", PlanCache: costmodel.PlanCacheStats{Hits: 60, Misses: 40},
				WhatIfCache: &costmodel.PlanCacheStats{Hits: 1, Misses: 2}})
		})},
		{"impossible batch counters", withStats(t, func(st *serving.Stats) {
			st.Scheduler = serving.SchedulerStats{Batches: 100, Items: 40, MeanBatchSize: 0.4, MaxBatchSize: 8}
		})},
		{"batch mean beyond max", withStats(t, func(st *serving.Stats) { st.Scheduler.MaxBatchSize = 2 })},
		{"batch window beyond max", withStats(t, func(st *serving.Stats) { st.Scheduler.BatchSizes.Max = 64 })},
		{"event gap", oneTarget(t, "server", map[string]any{
			"stats": servingStats(fixedNow), "events": eventsDocOf(9, 4, 5, 8, 9)})},
		{"event beyond head", oneTarget(t, "server", map[string]any{"events": eventsDocOf(5, 4, 5, 6)})},
		{"event log empty", oneTarget(t, "server", map[string]any{"events": eventsDocOf(0)})},
		{"p99 warn", withStats(t, func(st *serving.Stats) { st.Predict.P99Ms = 400 })},
		{"p99 fail", withStats(t, func(st *serving.Stats) { st.Predict.P99Ms = 2000 })},
		{"clock skew", &Bundle{Captures: []Capture{
			mkCapture(t, "a", map[string]any{"stats": servingStats(fixedNow)}),
			mkCapture(t, "b", map[string]any{"stats": servingStats(fixedNow.Add(2 * time.Minute))}),
			mkCapture(t, "fleet", map[string]any{"stats": clusterStats(fixedNow.Add(time.Second), 2)}),
		}}},
		{"stats unreachable", uncaptured("dead", &Doc{Err: "dial tcp 127.0.0.1:9: connect: connection refused"})},
		{"stats refused", uncaptured("draining", &Doc{Code: 503, Err: `{"error":"session closed"}`})},
		{"stats never collected", uncaptured("ghost", nil)},
		{"documents that do not decode", &Bundle{Captures: []Capture{undecodable}}},
		{"no targets", &Bundle{}},
	}
}

// TestVerdictGoldens pins the doctor's judgement byte for byte: the
// rendered table of every fixture against testdata/verdicts.golden.
// UPDATE_VERDICTS=1 rewrites the golden after a deliberate change to a
// check; read the diff before committing it.
func TestVerdictGoldens(t *testing.T) {
	var got strings.Builder
	for _, fx := range verdictFixtures(t) {
		fmt.Fprintf(&got, "== %s ==\n%s\n", fx.name, RenderTable(AnalyzeAll(fx.b)))
	}
	path := filepath.Join("testdata", "verdicts.golden")
	if os.Getenv("UPDATE_VERDICTS") != "" {
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
				t.Fatalf("verdicts differ from %s at line %d:\nwant %s\ngot  %s", path, i+1, w[i], g[i])
			}
		}
		t.Fatalf("verdicts differ from %s in length: want %d lines, got %d", path, len(w), len(g))
	}
}
