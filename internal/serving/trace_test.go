package serving

import (
	"context"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/obs"
)

// warmingEstimator is a fakeEstimator that also implements
// costmodel.EncodeWarmer, so sampled traces get an explicit encode span
// without training a real graph model.
type warmingEstimator struct {
	fakeEstimator
	warmed int
}

func (w *warmingEstimator) WarmEncode(in costmodel.PlanInput) error {
	w.warmed++
	return nil
}

// TestPredictTraceSpans pins the sampled-request contract: all five
// pipeline stages (parse, optimize, featurize, encode, predict) appear
// as spans, the scheduler attributes the flushed batch, and the sealed
// trace lands in the tracer's recent ring with the resolved names.
func TestPredictTraceSpans(t *testing.T) {
	imdb, _ := fixtures(t)
	tracer := obs.NewTracer(obs.TraceConfig{SampleEvery: 1})
	sess := NewSession(Config{Tracer: tracer})
	defer sess.Close()
	if err := sess.AttachDatabase("imdb", imdb.db); err != nil {
		t.Fatal(err)
	}
	est := &warmingEstimator{fakeEstimator: fakeEstimator{name: "fake"}}
	if err := sess.AttachModel(est); err != nil {
		t.Fatal(err)
	}

	if _, err := sess.Predict(context.Background(), "imdb", "fake", imdb.sqls[0]); err != nil {
		t.Fatal(err)
	}
	snap := tracer.Snapshot(0)
	if len(snap.Recent) != 1 {
		t.Fatalf("recent ring has %d traces, want 1", len(snap.Recent))
	}
	tr := snap.Recent[0]
	if tr.Op != "predict" || tr.DB != "imdb" || tr.Model != "fake" || tr.Query != imdb.sqls[0] {
		t.Fatalf("trace envelope = %+v", tr)
	}
	want := []string{StageParse, StageOptimize, StageFeaturize, StageEncode, StagePredict}
	if len(tr.Spans) != len(want) {
		t.Fatalf("got %d spans %v, want %v", len(tr.Spans), tr.Spans, want)
	}
	for i, name := range want {
		if tr.Spans[i].Name != name {
			t.Fatalf("span %d is %q, want %q (all: %+v)", i, tr.Spans[i].Name, name, tr.Spans)
		}
	}
	if est.warmed != 1 {
		t.Fatalf("WarmEncode called %d times, want 1", est.warmed)
	}
	if tr.BatchSize < 1 {
		t.Fatalf("scheduler attribution missing: batch_size = %d", tr.BatchSize)
	}
	if tr.CoalesceUs < 0 || tr.TotalUs <= 0 {
		t.Fatalf("timing fields = coalesce %dus total %dus", tr.CoalesceUs, tr.TotalUs)
	}

	// A repeated shape hits the plan cache: prepare spans vanish, the
	// trace says why.
	if _, err := sess.Predict(context.Background(), "imdb", "fake", imdb.sqls[0]); err != nil {
		t.Fatal(err)
	}
	tr = tracer.Snapshot(0).Recent[0]
	if !tr.PlanCached {
		t.Fatalf("second trace should be plan-cached: %+v", tr)
	}
	for _, sp := range tr.Spans {
		if sp.Name == StageParse || sp.Name == StageOptimize || sp.Name == StageFeaturize {
			t.Fatalf("plan-cached trace still has prepare span %q", sp.Name)
		}
	}
}

// TestPredictSlowLogAlwaysOn pins that a slow request is captured even
// when sampling is off: the envelope (no spans) lands in the slow ring.
func TestPredictSlowLogAlwaysOn(t *testing.T) {
	imdb, _ := fixtures(t)
	tracer := obs.NewTracer(obs.TraceConfig{SlowThreshold: time.Microsecond})
	sess := NewSession(Config{Tracer: tracer})
	defer sess.Close()
	if err := sess.AttachDatabase("imdb", imdb.db); err != nil {
		t.Fatal(err)
	}
	if err := sess.AttachModel(&fakeEstimator{name: "fake", delay: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Predict(context.Background(), "imdb", "fake", imdb.sqls[0]); err != nil {
		t.Fatal(err)
	}
	snap := tracer.Snapshot(0)
	if len(snap.Recent) != 0 {
		t.Fatalf("sampling off but recent ring holds %d traces", len(snap.Recent))
	}
	if len(snap.SlowQueries) != 1 {
		t.Fatalf("slow ring has %d traces, want 1", len(snap.SlowQueries))
	}
	slow := snap.SlowQueries[0]
	if !slow.Slow || slow.Sampled || len(slow.Spans) != 0 || slow.Query != imdb.sqls[0] {
		t.Fatalf("slow envelope = %+v", slow)
	}
}

// TestPredictTracingOffAllocs pins the zero-overhead contract: a
// steady-state Predict performs exactly as many allocations with an
// attached-but-idle tracer (sampling off, no slow threshold) as with no
// tracer at all.
func TestPredictTracingOffAllocs(t *testing.T) {
	imdb, _ := fixtures(t)
	ctx := context.Background()

	measure := func(tracer *obs.Tracer) float64 {
		sess := NewSession(Config{Tracer: tracer})
		defer sess.Close()
		if err := sess.AttachDatabase("imdb", imdb.db); err != nil {
			t.Fatal(err)
		}
		if err := sess.AttachModel(&fakeEstimator{name: "fake"}); err != nil {
			t.Fatal(err)
		}
		// Warm the plan cache and the scheduler queue goroutine.
		if _, err := sess.Predict(ctx, "imdb", "fake", imdb.sqls[0]); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := sess.Predict(ctx, "imdb", "fake", imdb.sqls[0]); err != nil {
				t.Fatal(err)
			}
		})
	}

	base := measure(nil)
	idle := measure(obs.NewTracer(obs.TraceConfig{}))
	if idle > base {
		t.Fatalf("idle tracer adds allocations: %.1f/req vs %.1f/req baseline", idle, base)
	}
}

// TestPredictHotAllocCeiling pins what a plan-cached single allocates
// end to end (fake estimator, no tracer). It was 17: three for the
// hand-off through the drain goroutine (a request, its reply channel, a
// batch slice), which the inline pass does not build, eight for
// Fingerprint's per-keyword case conversions, and two for the queue's
// stored fallback estimator (the estimator argument and the resolved
// generation each escaped to be stored). What is left is the
// fingerprint, the pass's input slice, and the estimator's own result.
func TestPredictHotAllocCeiling(t *testing.T) {
	imdb, _ := fixtures(t)
	ctx := context.Background()
	sess := NewSession(Config{})
	defer sess.Close()
	if err := sess.AttachDatabase("imdb", imdb.db); err != nil {
		t.Fatal(err)
	}
	if err := sess.AttachModel(&fakeEstimator{name: "fake"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Predict(ctx, "imdb", "fake", imdb.sqls[0]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sess.Predict(ctx, "imdb", "fake", imdb.sqls[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("plan-cached Predict allocates %.1f times per request, ceiling 3", allocs)
	}
}

// BenchmarkPredictTraceOverhead measures the per-request cost of the
// tracing hooks (E12): no tracer at all, an attached-but-idle tracer
// (the production default), and worst-case every-request sampling.
func BenchmarkPredictTraceOverhead(b *testing.B) {
	imdb, _ := fixtures(b)
	ctx := context.Background()
	for _, cfg := range []struct {
		name   string
		tracer *obs.Tracer
	}{
		{"none", nil},
		{"off", obs.NewTracer(obs.TraceConfig{})},
		{"sample1", obs.NewTracer(obs.TraceConfig{SampleEvery: 1})},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			sess := NewSession(Config{Tracer: cfg.tracer})
			defer sess.Close()
			if err := sess.AttachDatabase("imdb", imdb.db); err != nil {
				b.Fatal(err)
			}
			if err := sess.AttachModel(&fakeEstimator{name: "fake"}); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Predict(ctx, "imdb", "fake", imdb.sqls[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Predict(ctx, "imdb", "fake", imdb.sqls[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
