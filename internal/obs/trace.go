package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one named, timed step inside a trace. Offsets are relative
// to the trace's begin time so spans order and nest without clock
// arithmetic.
type Span struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// Trace is one request's recorded life. The instrumented goroutine
// appends spans while the request runs; the scheduler's flush
// goroutine sets the batch attribution just before answering (the
// result-channel send orders that write before the requester's reads);
// Finish seals the trace and publishes it into the tracer's rings,
// after which it is immutable.
type Trace struct {
	ID   int64     `json:"id"`
	Time time.Time `json:"time"`
	// Op is the traced operation: "predict" (serving pipeline) or
	// "route" (cluster router attempt chain).
	Op    string `json:"op"`
	DB    string `json:"db,omitempty"`
	Model string `json:"model,omitempty"`
	Query string `json:"query,omitempty"`
	// TotalUs is the end-to-end duration; Sampled and Slow report which
	// ring(s) the trace landed in.
	TotalUs int64  `json:"total_us"`
	Err     string `json:"error,omitempty"`
	Sampled bool   `json:"sampled"`
	Slow    bool   `json:"slow,omitempty"`
	// PlanCached reports that the prepare stages were short-circuited
	// by a plan-cache hit (so parse/optimize/featurize spans are
	// legitimately absent).
	PlanCached bool `json:"plan_cached,omitempty"`
	// BatchSize and CoalesceUs are the scheduler's attribution: how
	// large the micro-batch this request flushed in was, and how long
	// the request waited in the queue before its batch drained.
	BatchSize  int    `json:"batch_size,omitempty"`
	CoalesceUs int64  `json:"coalesce_us,omitempty"`
	Spans      []Span `json:"spans,omitempty"`

	start time.Time
}

// Span records one completed step that started at start and ends now.
// Nil-safe: unsampled requests carry a nil trace and pay nothing.
func (tr *Trace) Span(name string, start time.Time) {
	if tr == nil {
		return
	}
	tr.Spans = append(tr.Spans, Span{
		Name:    name,
		StartUs: start.Sub(tr.start).Microseconds(),
		DurUs:   time.Since(start).Microseconds(),
	})
}

// SetBatch records the scheduler's flush attribution. Nil-safe.
func (tr *Trace) SetBatch(size int, wait time.Duration) {
	if tr == nil {
		return
	}
	tr.BatchSize = size
	tr.CoalesceUs = wait.Microseconds()
}

// SetPlanCached marks the trace as having skipped the prepare stages.
// Nil-safe.
func (tr *Trace) SetPlanCached() {
	if tr == nil {
		return
	}
	tr.PlanCached = true
}

// TraceConfig sizes a Tracer. The zero value samples nothing and keeps
// no slow log — a Tracer built from it is inert but safe.
type TraceConfig struct {
	// SampleEvery records every Nth request as a full span trace
	// (<= 0 disables sampling).
	SampleEvery int
	// SlowThreshold always records requests at least this slow into
	// the slow-query ring, sampled or not (<= 0 disables the slow log).
	// Unsampled slow requests carry no spans — only the envelope.
	SlowThreshold time.Duration
}

// TraceRingSize bounds both the recent-traces and slow-query rings.
const TraceRingSize = 64

// Tracer is a sampling-gated span recorder with bounded recent-trace
// and slow-query rings. All methods are nil-safe so instrumented code
// never branches on whether tracing is configured; with sampling off,
// Begin returns a nil trace and the request path allocates nothing.
type Tracer struct {
	sampleEvery int64
	slowNs      int64

	reqs    atomic.Int64 // sampling counter (only advanced while sampling is on)
	ids     atomic.Int64
	sampled atomic.Int64
	slowN   atomic.Int64

	mu     sync.Mutex
	recent ring
	slow   ring
}

// NewTracer builds a tracer from cfg.
func NewTracer(cfg TraceConfig) *Tracer {
	t := &Tracer{
		sampleEvery: int64(cfg.SampleEvery),
		slowNs:      cfg.SlowThreshold.Nanoseconds(),
	}
	t.recent.buf = make([]*Trace, TraceRingSize)
	t.slow.buf = make([]*Trace, TraceRingSize)
	return t
}

// Begin starts timing one request. The returned trace is non-nil only
// when this request is sampled; the returned begin time feeds Finish
// either way (the always-on slow log needs the duration even for
// unsampled requests). Nil-safe: a nil tracer returns (nil, zero).
func (t *Tracer) Begin() (*Trace, time.Time) {
	if t == nil {
		return nil, time.Time{}
	}
	now := time.Now()
	if t.sampleEvery > 0 && t.reqs.Add(1)%t.sampleEvery == 0 {
		return &Trace{start: now, Spans: make([]Span, 0, 8)}, now
	}
	return nil, now
}

// Finish seals one request's trace and publishes it. With a nil trace
// and a duration under the slow threshold this is a no-op (and
// allocation-free); a nil-traced request over the threshold gets a
// span-less envelope in the slow ring. The resolved names may differ
// from the request's (empty names default); callers pass what they
// know.
func (t *Tracer) Finish(tr *Trace, op, db, model, query string, begin time.Time, err error) {
	if t == nil {
		return
	}
	dur := time.Since(begin)
	slow := t.slowNs > 0 && dur.Nanoseconds() >= t.slowNs
	if tr == nil {
		if !slow {
			return
		}
		tr = &Trace{start: begin}
	} else {
		tr.Sampled = true
	}
	tr.ID = t.ids.Add(1)
	tr.Time = begin
	tr.Op = op
	tr.DB = db
	tr.Model = model
	tr.Query = query
	tr.TotalUs = dur.Microseconds()
	tr.Slow = slow
	if err != nil {
		tr.Err = err.Error()
	}
	t.mu.Lock()
	if tr.Sampled {
		t.sampled.Add(1)
		t.recent.push(tr)
	}
	if slow {
		t.slowN.Add(1)
		t.slow.push(tr)
	}
	t.mu.Unlock()
}

// ring is a bounded newest-wins ring of sealed traces; the tracer's
// mutex guards both rings.
type ring struct {
	buf  []*Trace
	next int
	n    int
}

func (r *ring) push(tr *Trace) {
	r.buf[r.next] = tr
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// newestFirst copies out up to max traces, most recent first.
func (r *ring) newestFirst(max int) []*Trace {
	n := r.n
	if max > 0 && n > max {
		n = max
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(r.next-1-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// TraceSnapshot is the /v1/debug/traces payload: the tracer's
// configuration and counters plus the current contents of both rings,
// newest first.
type TraceSnapshot struct {
	SampleEvery     int      `json:"sample_every"`
	SlowThresholdMs float64  `json:"slow_threshold_ms"`
	Sampled         int64    `json:"sampled"`
	Slow            int64    `json:"slow"`
	Recent          []*Trace `json:"recent"`
	SlowQueries     []*Trace `json:"slow_queries"`
}

// Snapshot returns up to max traces from each ring (all of them if
// max <= 0), newest first. Nil-safe: a nil tracer yields an empty
// snapshot.
func (t *Tracer) Snapshot(max int) TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	s := TraceSnapshot{
		SampleEvery:     int(t.sampleEvery),
		SlowThresholdMs: float64(t.slowNs) / 1e6,
		Sampled:         t.sampled.Load(),
		Slow:            t.slowN.Load(),
	}
	t.mu.Lock()
	s.Recent = t.recent.newestFirst(max)
	s.SlowQueries = t.slow.newestFirst(max)
	t.mu.Unlock()
	return s
}
