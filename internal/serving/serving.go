// Package serving is the layer between the HTTP handlers (or any other
// front end) and the costmodel estimators: one Session owns the
// end-to-end SQL→cost pipeline over a *set* of attached databases — the
// paper's "one model to rule them all" promise made operational, since a
// single zero-shot estimator can price queries against every database a
// deployment hosts.
//
// A Session composes four stages:
//
//	parse ──▶ optimize ──▶ featurize ──▶ predict
//
// The first three stages are per-database (resolved names, physical plan,
// prediction input), run in order by one function (dbSession.prepare),
// and are skipped entirely on a plan-cache hit: each attached database
// keeps a costmodel.PlanCache keyed by SQL fingerprint, so repeated query
// shapes pay only the predict stage. The predict stage routes
// single-prediction requests through a scheduler: while a core is
// free a single runs its own batch of one on its caller's goroutine, and
// once none is, concurrent singles coalesce into adaptive micro-batches
// (bounded by a max batch size and a max-wait deadline). Either way they
// drain through Estimator.PredictBatch — saturated single-request
// traffic gets batched-inference throughput without clients ever forming
// batches themselves, and with a fusing estimator (the zero-shot model)
// each micro-batch executes as one fused forward pass. Explicit batches
// bypass the scheduler and drain through PredictBatch directly.
//
// Every stage records latencies into internal/metrics recorders and the
// caches record hit rates; Stats snapshots the lot for a /v1/stats
// endpoint. All Session methods are safe for concurrent use; Attach*
// calls are expected at startup but may interleave with traffic.
package serving

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// Sentinel error kinds front ends map to status codes (wrapped, test with
// errors.Is).
var (
	// ErrNotFound marks resolution failures: unknown database or model.
	ErrNotFound = errors.New("not found")
	// ErrBadQuery marks pipeline failures caused by the statement itself
	// (malformed SQL, unknown tables/columns, unplannable queries).
	ErrBadQuery = errors.New("bad query")
	// ErrClosed is returned by every method after Close.
	ErrClosed = errors.New("serving: session closed")
)

// Config sizes a Session. Zero values select the defaults.
type Config struct {
	// PlanCacheSize bounds each attached database's plan cache (default
	// costmodel.DefaultPlanCacheSize).
	PlanCacheSize int
	// Tracer, when non-nil, records sampled request traces and the
	// always-on slow-query log for Predict calls (see internal/obs).
	// Nil disables tracing entirely; the request path then performs no
	// additional allocations (pinned by TestPredictTracingOffAllocs).
	Tracer *obs.Tracer
}

// DefaultMaxBatch caps one coalesced micro-batch and DefaultMaxWait is
// how long the scheduler lets a queued solo request linger for
// companions before draining it: the queue's backpressure, not the
// deadline, usually sizes a batch — "adaptive" means batch size follows
// the instantaneous load (see the scheduler's policy comment). Only a
// request that had to queue can linger (one that finds the queue empty
// and a core free runs inline, on its caller's goroutine), and only when
// the previous batch coalesced from backlog — a batch that formed by
// lingering does not re-arm the linger.
const (
	DefaultMaxBatch = 64
	DefaultMaxWait  = 500 * time.Microsecond
)

// Session is the serving pipeline: attached databases, attached
// estimators, the micro-batch scheduler, and the metrics that observe
// them.
type Session struct {
	cfg     Config // cfg.Tracer is nil when tracing is off; all uses are nil-safe
	sched   *scheduler
	started time.Time

	mu     sync.RWMutex
	dbs    map[string]*dbSession
	models map[string]*modelSlot
	closed bool

	requests metrics.Counter
	errs     metrics.Counter
	predict  metrics.LatencyRecorder

	sweepLat   metrics.LatencyRecorder
	sweepSizes *metrics.Window // one observation per successful sweep: its count is Sweeps
}

// modelSlot is one attached model name's current estimator plus its
// swap history: the generation counts up from 1 at first attach, and
// swapped records when the current generation took over. The adaptation
// subsystem's accepted fine-tunes surface here.
type modelSlot struct {
	est        costmodel.Estimator
	generation int64
	swapped    time.Time
}

// NewSession returns an empty session; attach at least one database and
// one model before predicting.
func NewSession(cfg Config) *Session {
	s := &Session{
		cfg:        cfg,
		started:    time.Now(),
		dbs:        map[string]*dbSession{},
		models:     map[string]*modelSlot{},
		sweepSizes: metrics.NewWindow(0),
	}
	// Micro-batches always flush through the name's currently attached
	// generation, so a hot-swap takes effect even for already-queued
	// singles.
	s.sched = newScheduler(DefaultMaxBatch, DefaultMaxWait, s.currentModel)
	return s
}

// currentModel returns the estimator currently attached under name (nil
// when none is) — the scheduler's flush-time generation lookup.
func (s *Session) currentModel(name string) costmodel.Estimator {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if slot, ok := s.models[name]; ok {
		return slot.est
	}
	return nil
}

// AttachDatabase registers db under name and builds its per-database
// pipeline state once: statistics, the optimizer, and an empty plan
// cache. Every subsequent request against this name reuses that state.
func (s *Session) AttachDatabase(name string, db *storage.Database) error {
	if name == "" || db == nil {
		return fmt.Errorf("serving: AttachDatabase needs a name and a database")
	}
	// The statistics pass runs outside the lock; a duplicate or
	// post-Close attach (startup errors) pays for it before rejecting.
	ds := newDBSession(name, db, s.cfg.PlanCacheSize)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.dbs[name]; dup {
		return fmt.Errorf("serving: database %q already attached", name)
	}
	s.dbs[name] = ds
	return nil
}

// Counts returns the number of attached models and databases — the
// cheap accessor liveness probes want, with no list building or
// plan-cache locking.
func (s *Session) Counts() (models, databases int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.models), len(s.dbs)
}

// AttachModel registers an estimator under its Name(). Re-attaching a
// name replaces the previous estimator (latest wins), which lets callers
// hot-swap retrained models without a new session: the scheduler
// resolves the current generation at every flush, so even already-queued
// singles drain through the new model and the old one becomes
// collectable.
func (s *Session) AttachModel(est costmodel.Estimator) error {
	if est == nil {
		return fmt.Errorf("serving: AttachModel needs an estimator")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	name := est.Name()
	if slot, ok := s.models[name]; ok {
		slot.est = est
		slot.generation++
		slot.swapped = time.Now()
		return nil
	}
	s.models[name] = &modelSlot{est: est, generation: 1, swapped: time.Now()}
	return nil
}

// ModelGeneration reports how many times the name has been attached
// (hot-swaps included) and when the current generation took over.
func (s *Session) ModelGeneration(name string) (generation int64, swapped time.Time, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, time.Time{}, ErrClosed
	}
	slot, ok := s.models[name]
	if !ok {
		return 0, time.Time{}, fmt.Errorf("model %q not attached (attached: %v): %w", name, sortedNames(s.models), ErrNotFound)
	}
	return slot.generation, slot.swapped, nil
}

// CachedPlan returns the retained prepared input for a fingerprint in
// the named database's plan cache, without touching LRU order or hit
// stats. This is the feedback join: an observed runtime arrives with the
// fingerprint of an earlier prediction, and the cached PlanInput turns
// the pair into a training sample.
func (s *Session) CachedPlan(dbName, fingerprint string) (costmodel.PlanInput, bool, error) {
	d, err := s.database(dbName)
	if err != nil {
		return costmodel.PlanInput{}, false, err
	}
	in, ok := d.cache.Peek(fingerprint)
	return in, ok, nil
}

// database resolves a request's database name; an empty name selects the
// only attached database when unambiguous.
func (s *Session) database(name string) (*dbSession, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if name == "" {
		if len(s.dbs) == 1 {
			for _, d := range s.dbs {
				return d, nil
			}
		}
		return nil, fmt.Errorf("request must name a database (attached: %v): %w", sortedNames(s.dbs), ErrNotFound)
	}
	d, ok := s.dbs[name]
	if !ok {
		return nil, fmt.Errorf("database %q not attached (attached: %v): %w", name, sortedNames(s.dbs), ErrNotFound)
	}
	return d, nil
}

// begin counts one request and resolves its database and model — the
// preamble of Predict, PredictBatch and WhatIf. A resolution failure
// counts as the request's error.
func (s *Session) begin(dbName, model string) (d *dbSession, est costmodel.Estimator, err error) {
	s.requests.Inc()
	if d, err = s.database(dbName); err == nil {
		if est, err = s.Model(model); err == nil {
			return d, est, nil
		}
	}
	s.errs.Inc()
	return nil, nil, err
}

// countErr counts err as a failed request or item and reports whether
// it did. It does not when err is nil or the caller's own context ending
// — an impatient client, not a serving failure, stays out of the error
// counter so operators can alert on the Errors stat.
func (s *Session) countErr(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	s.errs.Inc()
	return true
}

// Model returns the estimator currently attached under name; an empty
// name selects the only attached model when unambiguous. Requests resolve
// their model through it, and the adaptation subsystem uses it to clone
// and shadow-evaluate the serving generation.
func (s *Session) Model(name string) (costmodel.Estimator, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if name == "" {
		if len(s.models) == 1 {
			for _, slot := range s.models {
				return slot.est, nil
			}
		}
		return nil, fmt.Errorf("request must name a model (attached: %v): %w", sortedNames(s.models), ErrNotFound)
	}
	slot, ok := s.models[name]
	if !ok {
		return nil, fmt.Errorf("model %q not attached (attached: %v): %w", name, sortedNames(s.models), ErrNotFound)
	}
	return slot.est, nil
}

// sortedNames returns the names attached in m (s.dbs or s.models)
// sorted; callers hold at least a read lock.
func sortedNames[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Models lists the attached model names sorted.
func (s *Session) Models() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedNames(s.models)
}

// DatabaseInfo describes one attached database.
type DatabaseInfo struct {
	Name      string                   `json:"name"`
	Schema    string                   `json:"schema"`
	Tables    int                      `json:"tables"`
	PlanCache costmodel.PlanCacheStats `json:"plan_cache"`
}

// Databases lists the attached databases sorted by attach name.
func (s *Session) Databases() []DatabaseInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DatabaseInfo, 0, len(s.dbs))
	for _, name := range sortedNames(s.dbs) {
		d := s.dbs[name]
		out = append(out, DatabaseInfo{
			Name:      name,
			Schema:    d.db.Schema.Name,
			Tables:    len(d.db.Schema.Tables),
			PlanCache: d.cache.Stats(),
		})
	}
	return out
}

// Prediction is one answered single-prediction request.
type Prediction struct {
	Database      string  `json:"db"`
	Model         string  `json:"model"`
	RuntimeSec    float64 `json:"runtime_sec"`
	OptimizerCost float64 `json:"optimizer_cost"`
	EstRows       float64 `json:"est_rows"`
	// Fingerprint is the statement's plan-cache key. Clients that later
	// observe the query's actual runtime hand it back with the
	// fingerprint (POST /v1/feedback) so the adaptation subsystem can
	// join the runtime against the retained plan.
	Fingerprint string `json:"fingerprint"`
	// PlanCached reports whether the parse→optimize→featurize stages
	// were skipped by a plan-cache hit.
	PlanCached bool `json:"plan_cached"`
}

// Predict runs one SQL statement through the full pipeline against the
// named database and model (either may be empty when unambiguous). The
// predict stage goes through the scheduler: inline while a core is free,
// coalesced with other concurrent singles otherwise. When the session's
// tracer samples the request, every pipeline stage records a span; slow
// requests land in the tracer's slow-query ring either way.
func (s *Session) Predict(ctx context.Context, dbName, model, sql string) (Prediction, error) {
	tr, begin := s.cfg.Tracer.Begin()
	p, err := s.predictTraced(ctx, dbName, model, sql, tr)
	// Prefer the resolved names (an empty request name defaults when
	// unambiguous); fall back to the request's own on early failure.
	db, mdl := p.Database, p.Model
	if db == "" {
		db = dbName
	}
	if mdl == "" {
		mdl = model
	}
	s.cfg.Tracer.Finish(tr, "predict", db, mdl, sql, begin, err)
	return p, err
}

func (s *Session) predictTraced(ctx context.Context, dbName, model, sql string, tr *obs.Trace) (Prediction, error) {
	d, est, err := s.begin(dbName, model)
	if err != nil {
		return Prediction{}, err
	}
	in, cached, fp, err := d.prepare(ctx, sql, false, tr)
	if err != nil {
		s.countErr(err)
		return Prediction{}, err
	}
	if cached {
		tr.SetPlanCached()
	}
	if tr != nil {
		// Warm the plan's encoded-graph memo under an explicit span so
		// sampled traces attribute encoding separately from inference.
		// Only estimators that expose their encoder participate; the
		// memo makes the predict stage below reuse the graph, so this
		// moves work into the span rather than adding any.
		if ew, ok := est.(costmodel.EncodeWarmer); ok {
			encStart := time.Now()
			// An encode failure surfaces identically from the predict
			// stage below; don't fail the request twice.
			_ = ew.WarmEncode(in)
			tr.Span(StageEncode, encStart)
		}
	}
	start := time.Now()
	pred, err := s.sched.predictOne(ctx, est, in, tr)
	s.predict.Observe(time.Since(start))
	tr.Span(StagePredict, start)
	if err != nil {
		s.countErr(err)
		return Prediction{}, err
	}
	return Prediction{
		Database:      d.name,
		Model:         est.Name(),
		RuntimeSec:    pred,
		OptimizerCost: in.OptimizerCost,
		EstRows:       in.Plan.EstRows,
		Fingerprint:   fp,
		PlanCached:    cached,
	}, nil
}

// BatchItem is one statement's outcome inside a batch: either a runtime
// prediction or that statement's own error. Err is structured per item so
// one malformed statement cannot poison the rest of the batch.
type BatchItem struct {
	RuntimeSec float64
	Err        error
}

// BatchResult is one answered batch request: the resolved database and
// model names (meaningful when the request omitted them) and the
// per-statement outcomes, aligned with the request's statements.
type BatchResult struct {
	Database string
	Model    string
	Items    []BatchItem
}

// PredictBatch runs many SQL statements through the pipeline and drains
// them through Estimator.PredictBatch directly (explicit batches skip the
// scheduler — the caller already did the coalescing). Pipeline failures
// land in the item's Err and the healthy remainder still predicts. The
// error return is reserved for request-level failures (unknown
// database/model, closed session).
//
// The statements are borrowed for the duration of the call: the caller
// may overwrite their bytes once it returns (the HTTP shim decodes them
// in place from a pooled request buffer), so nothing the session
// retains or returns aliases them.
func (s *Session) PredictBatch(ctx context.Context, dbName, model string, sqls []string) (BatchResult, error) {
	d, est, err := s.begin(dbName, model)
	if err != nil {
		return BatchResult{}, err
	}
	items := make([]BatchItem, len(sqls))
	ins := make([]costmodel.PlanInput, 0, len(sqls))
	idx := make([]int, 0, len(sqls)) // ins position -> items position
	for i, sql := range sqls {
		in, _, _, err := d.prepare(ctx, sql, true, nil)
		if err != nil {
			items[i].Err = err
			s.countErr(err)
			continue
		}
		ins = append(ins, in)
		idx = append(idx, i)
	}
	res := BatchResult{Database: d.name, Model: est.Name(), Items: items}
	if len(ins) == 0 {
		return res, nil
	}
	start := time.Now()
	preds, errs, _ := costmodel.PredictEach(ctx, est, ins)
	for j, i := range idx {
		items[i].RuntimeSec = preds[j]
		if errs != nil {
			items[i].Err = errs[j]
			s.countErr(errs[j])
		}
	}
	s.predict.Observe(time.Since(start))
	return res, nil
}

// Stats is the session-wide observability snapshot behind /v1/stats.
type Stats struct {
	// CollectedAt is the wall-clock instant this snapshot was taken, so
	// cross-replica support bundles can be ordered and skew-checked;
	// UptimeSec is the monotonic seconds elapsed since the session was
	// created — process uptime for the one-session-per-process
	// `zsdb serve`.
	CollectedAt time.Time `json:"collected_at"`
	UptimeSec   float64   `json:"uptime_sec"`
	// Requests and Errors count Predict, PredictBatch and WhatIf calls
	// and their failures (including per-item pipeline failures).
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Predict summarizes predict-stage latencies (one observation per
	// request, singles and batches alike).
	Predict metrics.LatencySummary `json:"predict"`
	// Scheduler reports micro-batch coalescing behavior.
	Scheduler SchedulerStats `json:"scheduler"`
	// Databases carries per-database pipeline-stage latencies and plan
	// cache hit rates.
	Databases []DatabaseStats `json:"databases"`
	// Models carries per-model generation counters: how many times each
	// name has been (re-)attached and when the serving generation last
	// changed — the observable trace of adaptation hot-swaps.
	Models []ModelStats `json:"models"`
	// WhatIf reports what-if sweep traffic.
	WhatIf WhatIfStats `json:"whatif"`
}

// WhatIfStats summarizes the session's what-if sweeps: how many ran,
// end-to-end sweep latency, and the distribution of fused batch sizes
// (priced variant × statement pairs per sweep).
type WhatIfStats struct {
	Sweeps     int64                  `json:"sweeps"`
	Latency    metrics.LatencySummary `json:"latency"`
	BatchSizes metrics.WindowSummary  `json:"batch_sizes"`
}

// ModelStats is one attached model's generation view.
type ModelStats struct {
	Name       string    `json:"name"`
	Generation int64     `json:"generation"`
	LastSwap   time.Time `json:"last_swap"`
}

// DatabaseStats is one attached database's pipeline view.
type DatabaseStats struct {
	Database  string                            `json:"db"`
	PlanCache costmodel.PlanCacheStats          `json:"plan_cache"`
	Stages    map[string]metrics.LatencySummary `json:"stages"`
	// WhatIfCache is never set: a what-if sweep keeps no plans. It
	// stays until bench/layers.go stops reading it; the doctor still
	// judges older support bundles that carry it.
	WhatIfCache *costmodel.PlanCacheStats `json:"whatif_cache,omitempty"`
}

// Stats snapshots the session's counters, stage latencies, cache hit
// rates and scheduler behavior.
//
// The registry view — which models and databases exist, and each
// model's generation — is captured in ONE pass under the session lock:
// every model slot's (name, generation, swap time) is copied while the
// same lock that AttachModel's writes take is held, so no snapshot can
// list a model without its generation or observe a generation from a
// different attach than the name list. (A previous draft interleaved
// name listing and slot reads; replica-aggregated cluster stats made
// that torn read observable.) Independently locked recorders — latency
// reservoirs, plan caches, the scheduler — are snapshotted after the
// lock is released: each carries its own cross-field invariants under
// its own lock (the scheduler's batch, item and max-size counts are one
// window's snapshot), and keeping them outside shortens the hold on the
// registry lock the request path contends on.
func (s *Session) Stats() Stats {
	s.mu.RLock()
	st := Stats{
		CollectedAt: time.Now(),
		UptimeSec:   time.Since(s.started).Seconds(),
		Requests:    s.requests.Value(),
		Errors:      s.errs.Value(),
	}
	st.Models = make([]ModelStats, 0, len(s.models))
	for _, name := range sortedNames(s.models) {
		slot := s.models[name]
		st.Models = append(st.Models, ModelStats{
			Name:       name,
			Generation: slot.generation,
			LastSwap:   slot.swapped,
		})
	}
	dbs := make([]*dbSession, 0, len(s.dbs))
	for _, name := range sortedNames(s.dbs) {
		dbs = append(dbs, s.dbs[name])
	}
	s.mu.RUnlock()
	st.Predict = s.predict.Snapshot()
	st.Scheduler = s.sched.stats()
	sizes := s.sweepSizes.Snapshot()
	st.WhatIf = WhatIfStats{
		Sweeps:     sizes.Count,
		Latency:    s.sweepLat.Snapshot(),
		BatchSizes: sizes,
	}
	st.Databases = make([]DatabaseStats, 0, len(dbs))
	for _, d := range dbs {
		st.Databases = append(st.Databases, d.stats())
	}
	return st
}

// Closed reports whether Close has been called — the liveness signal
// cluster health probes read without issuing a prediction.
func (s *Session) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Close drains the scheduler (queued singles still get answers) and
// marks the session unusable. It is idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.sched.close()
	return nil
}
