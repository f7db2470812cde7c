// Package obs is the observability layer: request tracing for the
// serving pipeline and a structured event log for the control plane.
//
// It has two halves, both bounded and both safe for concurrent use:
//
//   - Tracer — a sampling-gated span recorder. The serving pipeline,
//     the micro-batch scheduler, and the cluster router thread a *Trace
//     through one request's life and record named spans into it; the
//     tracer keeps recent sampled traces and an always-on slow-query
//     ring, served at GET /v1/debug/traces and rendered by `zsdb
//     trace`. Every method is nil-safe on both the tracer and the
//     trace, so instrumented code calls unconditionally — with no
//     tracer configured (or sampling off) the hot path performs zero
//     additional allocations, pinned by a steady-state allocs test in
//     internal/serving.
//
//   - Log — a bounded ring of structured control-plane events (model
//     hot-swap accept/reject, drift triggers, bundle publish/activate/
//     rollback, replica health transitions, failover rescues) with
//     monotonic sequence numbers, served at GET /v1/events?since=N.
//     This is the decision-log analogue for the adaptation loop: every
//     consequential control-plane decision leaves one ordered record.
//
// See DESIGN.md's "Observability" section for the sampling model, the
// event-ring semantics, and the support-bundle format consumed by the
// obs/doctor analyzers.
package obs

import (
	"sync"
	"time"
)

// Control-plane event types. The prefix names the subsystem that
// recorded the event; Fields carry the specifics.
const (
	// Adaptation loop (internal/adapt).
	EventDriftTriggered   = "adapt.drift_triggered"
	EventSwapAccepted     = "adapt.swap_accepted"
	EventSwapRejected     = "adapt.swap_rejected"
	EventFineTuneStarted  = "adapt.finetune_started"
	EventFineTuneFinished = "adapt.finetune_finished"

	// Model distribution (internal/bundle).
	EventBundlePublished = "bundle.published"
	EventBundleActivated = "bundle.activated"
	EventBundleRollback  = "bundle.rollback"

	// Cluster router (internal/cluster).
	EventReplicaDown    = "cluster.replica_down"
	EventReplicaUp      = "cluster.replica_up"
	EventFailoverRescue = "cluster.failover_rescue"
)

// Event is one control-plane decision record. Seq is assigned by the
// Log at record time and increases by exactly one per event, so a
// consumer holding events N and N+2 knows it missed one — the
// event-gap analyzer in obs/doctor checks exactly this.
type Event struct {
	Seq    int64             `json:"seq"`
	Time   time.Time         `json:"time"`
	Type   string            `json:"type"`
	Origin string            `json:"origin,omitempty"`
	Fields map[string]string `json:"fields,omitempty"`
}

// LogSize is the number of recent events a Log keeps.
const LogSize = 512

// Log is a bounded ring of control-plane events with monotonic
// sequence numbers. The zero value is NOT ready to use — construct
// with NewLog — but a nil *Log is: every method no-ops, so subsystems
// accept an optional Log and record unconditionally.
type Log struct {
	mu   sync.Mutex
	buf  []Event
	next int // ring write position
	n    int // valid entries
	seq  int64
}

// NewLog returns an empty event log holding at most LogSize recent
// events.
func NewLog() *Log { return &Log{buf: make([]Event, LogSize)} }

// Record appends one event, assigning it the next sequence number.
// The fields map is retained as-is; callers must not mutate it after
// recording. Safe to call on a nil Log (no-op).
func (l *Log) Record(typ, origin string, fields map[string]string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	l.buf[l.next] = Event{Seq: l.seq, Time: time.Now(), Type: typ, Origin: origin, Fields: fields}
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// Head returns the sequence number of the most recent event (0 when
// empty). Pollers pass it back as Since's after argument.
func (l *Log) Head() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Since returns up to max events with Seq > after, oldest first (all
// of them if max <= 0). Events older than the ring's capacity are
// gone; the caller observes that as the first returned Seq jumping
// past after+1.
func (l *Log) Since(after int64, max int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 || l.seq <= after {
		return nil
	}
	// Oldest retained event sits n slots behind the write position.
	start := (l.next - l.n + len(l.buf)) % len(l.buf)
	out := make([]Event, 0, l.n)
	for i := 0; i < l.n; i++ {
		ev := l.buf[(start+i)%len(l.buf)]
		if ev.Seq <= after {
			continue
		}
		out = append(out, ev)
	}
	if max > 0 && len(out) > max {
		// Keep the oldest max so pollers can page forward by resuming
		// from the last returned Seq.
		out = out[:max]
	}
	return out
}
