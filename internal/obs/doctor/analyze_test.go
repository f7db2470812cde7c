package doctor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/serving"
)

// mkCapture builds a capture whose named docs hold the marshaled
// bodies; endpoints not named are recorded as disabled (404).
func mkCapture(t *testing.T, name string, docs map[string]any) Capture {
	t.Helper()
	c := Capture{Target: Target{Name: name, BaseURL: "http://" + name}, Docs: map[string]*Doc{}}
	for _, ep := range Endpoints {
		if v, ok := docs[ep.Name]; ok {
			body, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			c.Docs[ep.Name] = &Doc{Name: ep.Name, Code: 200, Body: body}
		} else {
			c.Docs[ep.Name] = &Doc{Name: ep.Name, Code: 404, Err: "disabled"}
		}
	}
	return c
}

func findingsFor(fs []Finding, check string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

func wantStatus(t *testing.T, fs []Finding, check string, want Status) {
	t.Helper()
	got := findingsFor(fs, check)
	if len(got) == 0 {
		t.Fatalf("no findings for check %q in %+v", check, fs)
	}
	worst := Skip
	for _, f := range got {
		if severity[f.Status] > severity[worst] {
			worst = f.Status
		}
	}
	if worst != want {
		t.Fatalf("check %q worst status = %s, want %s (findings: %+v)", check, worst, want, got)
	}
}

func TestAnalyzeHealthySingleNode(t *testing.T) {
	b := &Bundle{
		Meta: Meta{Targets: []Target{{Name: "server"}}},
		Captures: []Capture{mkCapture(t, "server", map[string]any{
			"stats":  servingStats(time.Now()),
			"events": eventsDocOf(3, 1, 2, 3),
		})},
	}
	fs := AnalyzeAll(b)
	if v := Verdict(fs); v != Pass {
		t.Fatalf("verdict = %s, want pass\n%s", v, RenderTable(fs))
	}
	wantStatus(t, fs, "collection", Pass)
	wantStatus(t, fs, "latency-slo", Pass)
	wantStatus(t, fs, "cache-hit-rate", Pass)
	wantStatus(t, fs, "batch-sizes", Pass)
	wantStatus(t, fs, "event-gaps", Pass)
	// Disabled subsystems skip rather than judge.
	wantStatus(t, fs, "bundle-generations", Skip)
	wantStatus(t, fs, "qerror-drift", Skip)
}

func TestAnalyzeUnreachableTargetFails(t *testing.T) {
	c := Capture{Target: Target{Name: "dead"}, Docs: map[string]*Doc{}}
	for _, ep := range Endpoints {
		c.Docs[ep.Name] = &Doc{Name: ep.Name, Err: "dial tcp: connection refused"}
	}
	b := &Bundle{Meta: Meta{Targets: []Target{c.Target}}, Captures: []Capture{c}}
	fs := AnalyzeAll(b)
	wantStatus(t, fs, "collection", Fail)
	if Verdict(fs) != Fail {
		t.Fatalf("verdict = %s, want fail", Verdict(fs))
	}
}

func TestAnalyzeRingAgreement(t *testing.T) {
	good := cluster.RingView{
		Replicas: []string{"r0", "r1"},
		Healthy:  map[string]bool{"r0": true, "r1": true},
		Owners:   map[string]string{"imdb": "r0"},
		Routes:   map[string][]string{"imdb": {"r0", "r1"}},
	}
	b := &Bundle{Captures: []Capture{mkCapture(t, "router", map[string]any{"cluster": good})}}
	wantStatus(t, AnalyzeAll(b), "ring-agreement", Pass)

	// A route whose head disagrees with the owner is a torn ring view.
	bad := good
	bad.Routes = map[string][]string{"imdb": {"r1", "r0"}}
	b = &Bundle{Captures: []Capture{mkCapture(t, "router", map[string]any{"cluster": bad})}}
	fs := AnalyzeAll(b)
	wantStatus(t, fs, "ring-agreement", Fail)
	if d := findingsFor(fs, "ring-agreement")[0].Detail; !strings.Contains(d, "imdb") {
		t.Fatalf("detail should name the database: %q", d)
	}
}

func TestAnalyzeBundleGenerationLag(t *testing.T) {
	mk := func(r0, r1 int64) *Bundle {
		doc := bundlesDocOf(3, map[string]int64{"r0": r0, "r1": r1})
		return &Bundle{Captures: []Capture{mkCapture(t, "server", map[string]any{"bundles": doc})}}
	}
	wantStatus(t, AnalyzeAll(mk(3, 3)), "bundle-generations", Pass)
	wantStatus(t, AnalyzeAll(mk(3, 2)), "bundle-generations", Warn)
	wantStatus(t, AnalyzeAll(mk(3, 1)), "bundle-generations", Fail)
}

func TestAnalyzeQErrorDrift(t *testing.T) {
	mk := func(p50 float64, size int) *Bundle {
		return &Bundle{Captures: []Capture{mkCapture(t, "server", map[string]any{"adapt": adaptStatus(p50, size)})}}
	}
	wantStatus(t, AnalyzeAll(mk(1.2, 50)), "qerror-drift", Pass)
	wantStatus(t, AnalyzeAll(mk(2.0, 50)), "qerror-drift", Warn)
	wantStatus(t, AnalyzeAll(mk(5.0, 50)), "qerror-drift", Fail)
	// A cold window is not judged at all.
	wantStatus(t, AnalyzeAll(mk(5.0, 3)), "qerror-drift", Pass)
}

func TestAnalyzeCacheHitRateFloor(t *testing.T) {
	mk := func(hits, misses int64) *Bundle {
		st := servingStats(time.Now())
		st.Databases[0].PlanCache = costmodel.PlanCacheStats{Hits: hits, Misses: misses}
		return &Bundle{Captures: []Capture{mkCapture(t, "server", map[string]any{"stats": st})}}
	}
	wantStatus(t, AnalyzeAll(mk(90, 10)), "cache-hit-rate", Pass)
	wantStatus(t, AnalyzeAll(mk(5, 95)), "cache-hit-rate", Warn)
	// Too little traffic to judge: a cold cache is not a sick cache.
	wantStatus(t, AnalyzeAll(mk(0, 10)), "cache-hit-rate", Pass)
}

func TestAnalyzeBatchSizeSanity(t *testing.T) {
	st := servingStats(time.Now())
	st.Scheduler = serving.SchedulerStats{Batches: 100, Items: 40, MeanBatchSize: 0.4, MaxBatchSize: 8}
	b := &Bundle{Captures: []Capture{mkCapture(t, "server", map[string]any{"stats": st})}}
	wantStatus(t, AnalyzeAll(b), "batch-sizes", Fail)
}

func TestAnalyzeEventGap(t *testing.T) {
	b := &Bundle{Captures: []Capture{mkCapture(t, "server", map[string]any{
		"stats":  servingStats(time.Now()),
		"events": eventsDocOf(9, 4, 5, 8, 9),
	})}}
	fs := AnalyzeAll(b)
	wantStatus(t, fs, "event-gaps", Fail)
}

func TestAnalyzeLatencySLO(t *testing.T) {
	mk := func(p99 float64) *Bundle {
		st := servingStats(time.Now())
		st.Predict.P99Ms = p99
		return &Bundle{Captures: []Capture{mkCapture(t, "server", map[string]any{"stats": st})}}
	}
	wantStatus(t, AnalyzeAll(mk(3)), "latency-slo", Pass)
	wantStatus(t, AnalyzeAll(mk(400)), "latency-slo", Warn)
	wantStatus(t, AnalyzeAll(mk(2000)), "latency-slo", Fail)
}

func TestAnalyzeClockSkew(t *testing.T) {
	now := time.Now()
	b := &Bundle{Captures: []Capture{
		mkCapture(t, "a", map[string]any{"stats": servingStats(now)}),
		mkCapture(t, "b", map[string]any{"stats": servingStats(now.Add(2 * time.Minute))}),
	}}
	wantStatus(t, AnalyzeAll(b), "clock-skew", Warn)

	b = &Bundle{Captures: []Capture{
		mkCapture(t, "a", map[string]any{"stats": servingStats(now)}),
		mkCapture(t, "b", map[string]any{"stats": servingStats(now.Add(time.Second))}),
	}}
	wantStatus(t, AnalyzeAll(b), "clock-skew", Pass)
}

// TestArchiveRoundTrip pins the offline-analysis contract: a bundle
// written and re-read yields the identical findings.
func TestArchiveRoundTrip(t *testing.T) {
	b := &Bundle{
		Meta: Meta{Tool: "zsdb doctor", CollectedAt: time.Now().UTC(), Targets: []Target{{Name: "server", BaseURL: "http://server"}}},
		Captures: []Capture{mkCapture(t, "server", map[string]any{
			"stats":  servingStats(time.Now()),
			"events": eventsDocOf(2, 1, 2),
		})},
	}
	var buf bytes.Buffer
	if err := WriteArchive(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := AnalyzeAll(b)
	have := AnalyzeAll(got)
	if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", have) {
		t.Fatalf("findings diverge after round trip:\nlive:    %+v\noffline: %+v", want, have)
	}
	if got.Meta.Tool != "zsdb doctor" || len(got.Captures) != 1 {
		t.Fatalf("meta lost in round trip: %+v", got.Meta)
	}
	// 404-captured docs survive as status without bodies.
	d := got.Captures[0].Doc("adapt")
	if d == nil || d.Code != 404 || d.Body != nil {
		t.Fatalf("disabled doc not preserved: %+v", d)
	}
}
