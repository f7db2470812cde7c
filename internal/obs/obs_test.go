package obs

import (
	"errors"
	"testing"
	"time"
)

func TestLogSequenceAndSince(t *testing.T) {
	l := NewLog()
	for i := 0; i < 3; i++ {
		l.Record(EventSwapAccepted, "r0", map[string]string{"model": "zeroshot"})
	}
	if got := l.Head(); got != 3 {
		t.Fatalf("Head = %d, want 3", got)
	}
	evs := l.Since(0, 0)
	if len(evs) != 3 {
		t.Fatalf("Since(0) returned %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Type != EventSwapAccepted || ev.Origin != "r0" {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if got := l.Since(2, 0); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("Since(2) = %+v, want just seq 3", got)
	}
	if got := l.Since(3, 0); got != nil {
		t.Fatalf("Since(head) = %+v, want nil", got)
	}
}

func TestLogRingEvictsOldest(t *testing.T) {
	l := NewLog()
	for i := 0; i < LogSize+6; i++ {
		l.Record(EventReplicaDown, "router", nil)
	}
	evs := l.Since(0, 0)
	if len(evs) != LogSize {
		t.Fatalf("retained %d events, want %d", len(evs), LogSize)
	}
	// The oldest retained event's Seq jumps past 1 — that is how a
	// consumer observes truncation.
	if first, last := evs[0].Seq, evs[len(evs)-1].Seq; first != 7 || last != LogSize+6 {
		t.Fatalf("retained seqs %d..%d, want 7..%d", first, last, LogSize+6)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("gap inside ring: %d -> %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestLogSincePagesForward(t *testing.T) {
	l := NewLog()
	for i := 0; i < 6; i++ {
		l.Record(EventBundlePublished, "pub", nil)
	}
	page := l.Since(0, 2)
	if len(page) != 2 || page[0].Seq != 1 || page[1].Seq != 2 {
		t.Fatalf("first page = %+v, want seqs 1,2", page)
	}
	page = l.Since(page[len(page)-1].Seq, 2)
	if len(page) != 2 || page[0].Seq != 3 {
		t.Fatalf("second page = %+v, want seqs 3,4", page)
	}
}

func TestLogNilSafe(t *testing.T) {
	var l *Log
	l.Record(EventSwapRejected, "x", nil) // must not panic
	if l.Head() != 0 || l.Since(0, 0) != nil {
		t.Fatal("nil Log should be empty")
	}
}

func TestTracerSamplingCadence(t *testing.T) {
	tr := NewTracer(TraceConfig{SampleEvery: 3})
	sampled := 0
	for i := 0; i < 9; i++ {
		sp, begin := tr.Begin()
		if sp != nil {
			sampled++
			sp.Span("parse", begin)
		}
		tr.Finish(sp, "predict", "imdb", "zeroshot", "SELECT 1", begin, nil)
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 at 1-in-3, want 3", sampled)
	}
	snap := tr.Snapshot(0)
	if snap.Sampled != 3 || len(snap.Recent) != 3 {
		t.Fatalf("snapshot sampled=%d recent=%d, want 3/3", snap.Sampled, len(snap.Recent))
	}
	got := snap.Recent[0]
	if !got.Sampled || got.Op != "predict" || got.DB != "imdb" || len(got.Spans) != 1 {
		t.Fatalf("sealed trace = %+v", got)
	}
	// Newest first: IDs descend.
	if len(snap.Recent) > 1 && snap.Recent[0].ID < snap.Recent[1].ID {
		t.Fatalf("recent not newest-first: %d then %d", snap.Recent[0].ID, snap.Recent[1].ID)
	}
}

func TestTracerSlowLogWithoutSampling(t *testing.T) {
	tr := NewTracer(TraceConfig{SlowThreshold: time.Microsecond})
	sp, begin := tr.Begin()
	if sp != nil {
		t.Fatal("sampling is off; Begin should return nil")
	}
	time.Sleep(2 * time.Millisecond)
	tr.Finish(sp, "predict", "imdb", "", "SELECT 1", begin, errors.New("boom"))
	snap := tr.Snapshot(0)
	if len(snap.Recent) != 0 {
		t.Fatalf("unsampled request leaked into recent ring: %+v", snap.Recent)
	}
	if snap.Slow != 1 || len(snap.SlowQueries) != 1 {
		t.Fatalf("slow ring has %d entries (counter %d), want 1", len(snap.SlowQueries), snap.Slow)
	}
	got := snap.SlowQueries[0]
	if !got.Slow || got.Sampled || got.Err != "boom" || len(got.Spans) != 0 {
		t.Fatalf("slow envelope = %+v", got)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	sp, begin := tr.Begin()
	if sp != nil {
		t.Fatal("nil tracer sampled a trace")
	}
	sp.Span("parse", begin)
	sp.SetBatch(4, time.Millisecond)
	sp.SetPlanCached()
	tr.Finish(sp, "predict", "", "", "", begin, nil)
	if snap := tr.Snapshot(0); snap.Recent != nil || snap.SlowQueries != nil {
		t.Fatalf("nil tracer snapshot = %+v", snap)
	}
}

func TestTracerOffPathAllocs(t *testing.T) {
	tr := NewTracer(TraceConfig{}) // sampling off, no slow log
	allocs := testing.AllocsPerRun(200, func() {
		sp, begin := tr.Begin()
		tr.Finish(sp, "predict", "imdb", "zeroshot", "SELECT 1", begin, nil)
	})
	if allocs != 0 {
		t.Fatalf("tracing off allocated %.1f per request, want 0", allocs)
	}
}

func TestTracerBatchAttribution(t *testing.T) {
	tr := NewTracer(TraceConfig{SampleEvery: 1})
	sp, begin := tr.Begin()
	if sp == nil {
		t.Fatal("1-in-1 sampling returned nil")
	}
	sp.SetBatch(7, 250*time.Microsecond)
	sp.SetPlanCached()
	tr.Finish(sp, "predict", "imdb", "zeroshot", "SELECT 1", begin, nil)
	got := tr.Snapshot(1).Recent[0]
	if got.BatchSize != 7 || got.CoalesceUs != 250 || !got.PlanCached {
		t.Fatalf("attribution = %+v", got)
	}
}

func TestTracerRingKeepsNewest(t *testing.T) {
	tr := NewTracer(TraceConfig{SampleEvery: 1, SlowThreshold: time.Nanosecond})
	for i := 0; i < TraceRingSize+5; i++ {
		sp, begin := tr.Begin()
		time.Sleep(time.Microsecond)
		tr.Finish(sp, "predict", "imdb", "zeroshot", "SELECT 1", begin, nil)
	}
	snap := tr.Snapshot(0)
	if snap.Sampled != TraceRingSize+5 || snap.Slow != TraceRingSize+5 {
		t.Fatalf("counters sampled=%d slow=%d, want %d each", snap.Sampled, snap.Slow, TraceRingSize+5)
	}
	for name, got := range map[string][]*Trace{"recent": snap.Recent, "slow": snap.SlowQueries} {
		if len(got) != TraceRingSize {
			t.Fatalf("%s ring holds %d traces, want %d", name, len(got), TraceRingSize)
		}
		if newest, oldest := got[0].ID, got[len(got)-1].ID; newest != TraceRingSize+5 || oldest != 6 {
			t.Fatalf("%s ring holds IDs %d..%d, want %d..6", name, newest, oldest, TraceRingSize+5)
		}
	}
}
