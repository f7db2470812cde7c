package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// Config sizes a Router. Zero values select the defaults.
//
// A request's failover walk always tries every replica — the owner, then
// each distinct ring successor: with a handful of replicas exhaustive
// failover is the right bound.
type Config struct {
	// CallTimeout bounds each routed attempt. When it fires while the
	// caller's own context is still live, the attempt counts as a
	// backend failure and the request fails over — a slow replica must
	// not become a lost request. 0 means attempts inherit only the
	// caller's deadline.
	CallTimeout time.Duration
	// HealthInterval is the background prober's period; 0 disables the
	// prober (callers drive CheckHealth themselves — the deterministic
	// simulation harness does).
	HealthInterval time.Duration
	// Tracer, when non-nil, records sampled routed requests with one
	// span per failover attempt (see internal/obs). Nil disables.
	Tracer *obs.Tracer
	// Events, when non-nil, receives replica health transitions and
	// failover rescues — the router's control-plane decision log. Nil
	// disables.
	Events *obs.Log
}

// fanoutLimit bounds how many replicas a cross-replica operation
// (Databases, Stats, Models, CheckHealth) queries concurrently.
const fanoutLimit = 4

// healthTimeout bounds one health probe.
const healthTimeout = 2 * time.Second

// replica is one registered backend plus the router's view of it: its
// health mark and the counters ReplicaStats reports.
type replica struct {
	b       Backend
	healthy atomic.Bool

	served, failed, rescued atomic.Int64
}

// Router partitions databases across replica backends on a consistent
// hash ring and routes every request to the replica owning its
// database — plan-cache and adaptation-window locality — failing over
// along the ring's successor sequence when the owner is down, slow, or
// (in a sharded deployment) simply doesn't hold the database.
//
// Replicas marked unhealthy (by a failed call or probe) are skipped on
// the fast path but retried as a last resort when every healthy
// candidate has failed, so a stale mark can delay a request yet never
// lose one; CheckHealth (or the background prober) flips recovered
// replicas back. Safe for concurrent use.
type Router struct {
	cfg  Config
	ring *Ring

	mu       sync.RWMutex
	replicas map[string]*replica
	closed   bool

	tracer *obs.Tracer // nil when tracing is off; all uses are nil-safe
	events *obs.Log    // nil when the event log is off; all uses are nil-safe

	requests  metrics.Counter
	failovers metrics.Counter

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewRouter returns a Router with no replicas; Register at least one
// before routing. The background health prober starts only when
// cfg.HealthInterval > 0.
func NewRouter(cfg Config) *Router {
	r := &Router{
		cfg:      cfg,
		ring:     NewRing(DefaultVirtualNodes),
		replicas: map[string]*replica{},
		tracer:   cfg.Tracer,
		events:   cfg.Events,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if cfg.HealthInterval > 0 {
		go r.probeLoop()
	} else {
		close(r.done)
	}
	return r
}

// Register adds a replica to the ring, initially healthy. Duplicate
// names are rejected (the ring would silently merge them).
func (r *Router) Register(b Backend) error {
	if b == nil {
		return fmt.Errorf("cluster: Register needs a backend")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return serving.ErrClosed
	}
	if _, dup := r.replicas[b.Name()]; dup {
		return fmt.Errorf("cluster: replica %q already registered", b.Name())
	}
	if err := r.ring.Add(b.Name()); err != nil {
		return err
	}
	rep := &replica{b: b}
	rep.healthy.Store(true)
	r.replicas[b.Name()] = rep
	return nil
}

// Replicas returns the registered replica names, sorted.
func (r *Router) Replicas() []string { return r.ring.Members() }

// Owner returns the replica name owning db's key range ("" when no
// replicas are registered).
func (r *Router) Owner(db string) string { return r.ring.Owner(db) }

// Route returns db's full failover sequence: the owner first, then the
// distinct ring successors a request would try in order.
func (r *Router) Route(db string) []string { return r.ring.Successors(db, 0) }

// isDownClass reports whether err means "the replica, not the request,
// failed" — the class that triggers failover. A closed session is an
// in-process replica shutting down, which looks like a crash.
func isDownClass(err error) bool {
	return errors.Is(err, ErrBackendDown) || errors.Is(err, serving.ErrClosed)
}

// isNotFoundClass reports whether err means "not on this replica": the
// database or model is not attached, or a feedback's fingerprint has
// no retained plan to join. The router walks on past it, because a
// sharded peer, or the successor that served during an outage, may
// hold what this replica lacks; StatusFor answers it with 404.
func isNotFoundClass(err error) bool {
	return errors.Is(err, serving.ErrNotFound) || errors.Is(err, adapt.ErrNoPlan)
}

// markHealth updates a replica's health mark and, on an actual
// transition (the CompareAndSwap filters repeated marks in the same
// state), records a replica_up/replica_down event.
func (r *Router) markHealth(rep *replica, up bool) {
	if !rep.healthy.CompareAndSwap(!up, up) {
		return
	}
	typ := obs.EventReplicaDown
	if up {
		typ = obs.EventReplicaUp
	}
	r.events.Record(typ, "router", map[string]string{"replica": rep.b.Name()})
}

// attempt runs call against db's candidate replicas in failover order:
// healthy candidates first (ring order), then — only if all of those
// failed — the unhealthy ones as a last resort, because a stale
// unhealthy mark must never turn a servable request into an error.
// call's error classes steer the walk: backend-down marks the replica
// unhealthy and moves on; not-found moves on (a sharded peer may hold
// the database) but is remembered; anything else is the request's own
// failure and returns immediately.
func (r *Router) attempt(ctx context.Context, db string, call func(ctx context.Context, b Backend) error) error {
	tr, begin := r.tracer.Begin()
	err := r.attemptTraced(ctx, db, call, tr)
	r.tracer.Finish(tr, "route", db, "", "", begin, err)
	return err
}

func (r *Router) attemptTraced(ctx context.Context, db string, call func(ctx context.Context, b Backend) error, tr *obs.Trace) error {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return serving.ErrClosed
	}
	// The failover order, built in stack arrays that hold eight
	// replicas: healthy candidates in ring order, then the unhealthy
	// ones. Health is read once, so a candidate is tried at most once.
	var nameBuf [8]string
	var candBuf [8]*replica
	names := r.ring.appendSuccessors(nameBuf[:0], db, 0)
	candidates, healthy := candBuf[:0], 0
	for _, n := range names {
		if rep, ok := r.replicas[n]; ok {
			if rep.healthy.Load() {
				candidates = slices.Insert(candidates, healthy, rep)
				healthy++
			} else {
				candidates = append(candidates, rep)
			}
		}
	}
	r.mu.RUnlock()
	if len(candidates) == 0 {
		return fmt.Errorf("%w: no replicas registered", ErrNoReplica)
	}
	r.requests.Inc()
	owner := names[0]
	var lastDown, notFound error
	ownerNotFound := false
	failed := 0
	for _, rep := range candidates {
		if err := ctx.Err(); err != nil {
			return err // the caller gave up; stop walking
		}
		hopStart := time.Now()
		err := r.callOne(ctx, rep.b, call)
		switch {
		case err == nil:
			attemptSpan(tr, rep, "", hopStart)
			r.markHealth(rep, true)
			rep.served.Add(1)
			// A failover is any request its ring owner did not serve —
			// whether an attempt failed in-request or the health marks
			// steered around the owner proactively.
			if failed > 0 || rep.b.Name() != owner {
				r.failovers.Inc()
				rep.rescued.Add(1)
				r.events.Record(obs.EventFailoverRescue, "router", map[string]string{
					"replica": rep.b.Name(), "owner": owner, "db": db,
				})
			}
			return nil
		case isDownClass(err):
			attemptSpan(tr, rep, ":down", hopStart)
			r.markHealth(rep, false)
			rep.failed.Add(1)
			lastDown = err
			failed++
		case isNotFoundClass(err):
			attemptSpan(tr, rep, ":notfound", hopStart)
			notFound = err
			if rep.b.Name() == owner {
				ownerNotFound = true
			}
			failed++
		default:
			attemptSpan(tr, rep, ":error", hopStart)
			return err
		}
	}
	if notFound != nil && (lastDown == nil || ownerNotFound) {
		// "Not here" is authoritative when every reachable candidate said
		// it, or when the ring OWNER itself said it — in a well-placed
		// sharded deployment the owner is the holder, so its verdict
		// outranks an unrelated replica being down. Only when the owner
		// was unreachable and a peer said not-found does the outage win:
		// the database may live exactly on the dead shard.
		return notFound
	}
	if lastDown != nil {
		return fmt.Errorf("%w: %d candidate(s) for %q exhausted, last: %v", ErrNoReplica, len(candidates), db, lastDown)
	}
	return fmt.Errorf("%w: %d candidate(s) for %q exhausted", ErrNoReplica, len(candidates), db)
}

// attemptSpan records one failover hop as the span
// "attempt:<replica><outcome>". The name is built only for a sampled
// request: an unsampled one must allocate nothing for its trace.
func attemptSpan(tr *obs.Trace, rep *replica, outcome string, begin time.Time) {
	if tr != nil {
		tr.Span("attempt:"+rep.b.Name()+outcome, begin)
	}
}

// callOne runs call against one backend under the per-attempt
// CallTimeout. When the attempt's own deadline fires while the caller's
// ctx is still live, the error becomes ErrBackendDown: a slow replica is
// a down replica as far as routing is concerned.
func (r *Router) callOne(ctx context.Context, b Backend, call func(ctx context.Context, b Backend) error) error {
	actx := ctx
	if r.cfg.CallTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.cfg.CallTimeout)
		defer cancel()
	}
	err := call(actx, b)
	if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		err = fmt.Errorf("%w: %s: %v", ErrBackendDown, b.Name(), err)
	}
	return err
}

// Predict routes one statement to the replica owning db (empty db is
// legal only in degenerate single-database deployments — it hashes as
// its own key) and returns its prediction.
func (r *Router) Predict(ctx context.Context, db, model, sql string) (serving.Prediction, error) {
	var out serving.Prediction
	err := r.attempt(ctx, db, func(ctx context.Context, b Backend) error {
		p, err := b.Predict(ctx, db, model, sql)
		if err == nil {
			out = p
		}
		return err
	})
	return out, err
}

// PredictBatch routes one batch to the replica owning db.
func (r *Router) PredictBatch(ctx context.Context, db, model string, sqls []string) (serving.BatchResult, error) {
	var out serving.BatchResult
	err := r.attempt(ctx, db, func(ctx context.Context, b Backend) error {
		res, err := b.PredictBatch(ctx, db, model, sqls)
		if err == nil {
			out = res
		}
		return err
	})
	return out, err
}

// WhatIf routes one what-if sweep to the replica owning db, exactly
// like Predict: owner-first is the one rule for per-database calls. A
// sweep plans and prices its workload itself and keeps none of it, so
// no replica's plan cache sees it.
func (r *Router) WhatIf(ctx context.Context, db, model string, req whatif.Request) (*whatif.Report, error) {
	var out *whatif.Report
	err := r.attempt(ctx, db, func(ctx context.Context, b Backend) error {
		rep, err := b.WhatIf(ctx, db, model, req)
		if err == nil {
			out = rep
		}
		return err
	})
	return out, err
}

// Feedback routes an observed runtime to the replica owning db — the
// one whose plan cache retains the fingerprint and whose adaptation
// windows must buffer the sample. It fails over exactly like Predict:
// if the owner is down, the successor that served the db's predictions
// during the outage also holds their cached plans.
func (r *Router) Feedback(ctx context.Context, db, fingerprint string, actualSec float64) error {
	return r.attempt(ctx, db, func(ctx context.Context, b Backend) error {
		return b.Feedback(ctx, db, fingerprint, actualSec)
	})
}

// fanout runs fn against every registered replica with at most
// fanoutLimit concurrent calls (each under callOne's timeout rule), in
// sorted-name order per slot, and returns the replicas it called with
// their errors (nil entries for successes) aligned. The caller reads
// the returned replicas, never the registry again: a replica removed
// meanwhile is still the one that answered.
func (r *Router) fanout(ctx context.Context, fn func(ctx context.Context, b Backend) error) (reps []*replica, errs []error, err error) {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return nil, nil, serving.ErrClosed
	}
	reps = make([]*replica, 0, len(r.replicas))
	for _, name := range r.ring.Members() {
		reps = append(reps, r.replicas[name])
	}
	r.mu.RUnlock()
	errs = make([]error, len(reps))
	sem := make(chan struct{}, fanoutLimit)
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, rep *replica) {
			defer wg.Done()
			defer func() { <-sem }()
			e := r.callOne(ctx, rep.b, fn)
			if isDownClass(e) {
				r.markHealth(rep, false)
				rep.failed.Add(1)
			} else if e == nil {
				r.markHealth(rep, true)
			}
			errs[i] = e
		}(i, rep)
	}
	wg.Wait()
	return reps, errs, nil
}

// DatabaseView is one database as the cluster sees it: the owning
// replica's info plus every replica currently holding a copy.
type DatabaseView struct {
	serving.DatabaseInfo
	// Owner is the ring owner; requests for this database land there
	// first. The embedded info is the owner's view when the owner holds
	// the database, else the first (sorted) holder's.
	Owner string `json:"owner"`
	// Replicas lists every replica with the database attached, sorted —
	// one entry in sharded deployments, all replicas in the mirrored
	// single-binary mode.
	Replicas []string `json:"replicas"`
}

// Databases aggregates the database listing across replicas (bounded
// fan-out). Unreachable replicas are skipped — a listing must degrade,
// not fail, during a partial outage.
func (r *Router) Databases(ctx context.Context) ([]DatabaseView, error) {
	views := map[string]*DatabaseView{}
	var mu sync.Mutex
	_, _, err := r.fanout(ctx, func(ctx context.Context, b Backend) error {
		infos, err := b.Databases(ctx)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for _, info := range infos {
			v, ok := views[info.Name]
			if !ok {
				v = &DatabaseView{DatabaseInfo: info, Owner: r.ring.Owner(info.Name)}
				views[info.Name] = v
			}
			v.Replicas = append(v.Replicas, b.Name())
			if b.Name() == v.Owner {
				v.DatabaseInfo = info // prefer the owner's plan-cache stats
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]DatabaseView, 0, len(views))
	for _, v := range views {
		sort.Strings(v.Replicas)
		out = append(out, *v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ReplicaStats is one replica's row in the cluster stats: the router's
// view (health, routing counters) plus the replica's own serving
// snapshot when reachable.
type ReplicaStats struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	// Served counts requests this replica answered; Failed counts its
	// backend-level call failures; Rescued counts requests it picked up
	// after another replica failed.
	Served  int64 `json:"served"`
	Failed  int64 `json:"failed"`
	Rescued int64 `json:"rescued"`
	// Error carries the stats-fetch failure for an unreachable replica;
	// Serving is nil in that case.
	Error   string         `json:"error,omitempty"`
	Serving *serving.Stats `json:"serving,omitempty"`
}

// ClusterStats is the aggregated /v1/stats body in cluster mode.
type ClusterStats struct {
	// CollectedAt is the wall-clock instant this aggregate snapshot was
	// assembled (each replica's serving snapshot carries its own).
	CollectedAt time.Time `json:"collected_at"`
	// Requests counts routed requests; Failovers counts the ones that
	// needed at least one failover hop.
	Requests  int64          `json:"requests"`
	Failovers int64          `json:"failovers"`
	Replicas  []ReplicaStats `json:"replicas"`
}

// Stats aggregates router counters with each reachable replica's
// serving snapshot (bounded fan-out; unreachable replicas report their
// error instead of a snapshot).
func (r *Router) Stats(ctx context.Context) (ClusterStats, error) {
	per := make(map[string]*serving.Stats)
	var mu sync.Mutex
	reps, errs, err := r.fanout(ctx, func(ctx context.Context, b Backend) error {
		st, err := b.Stats(ctx)
		if err != nil {
			return err
		}
		mu.Lock()
		per[b.Name()] = &st
		mu.Unlock()
		return nil
	})
	if err != nil {
		return ClusterStats{}, err
	}
	out := ClusterStats{
		CollectedAt: time.Now(),
		Requests:    r.requests.Value(),
		Failovers:   r.failovers.Value(),
	}
	for i, rep := range reps {
		rs := ReplicaStats{
			Name:    rep.b.Name(),
			Healthy: rep.healthy.Load(),
			Served:  rep.served.Load(),
			Failed:  rep.failed.Load(),
			Rescued: rep.rescued.Load(),
		}
		if errs[i] != nil {
			rs.Error = errs[i].Error()
		} else {
			rs.Serving = per[rs.Name]
		}
		out.Replicas = append(out.Replicas, rs)
	}
	return out, nil
}

// CheckHealth probes every replica (bounded fan-out), updates the
// health marks, and returns each replica's probe error (nil = healthy).
// The background prober calls this on its interval; deterministic
// callers (the sim harness, tests) call it directly.
func (r *Router) CheckHealth(ctx context.Context) map[string]error {
	out := map[string]error{}
	reps, errs, err := r.fanout(ctx, func(ctx context.Context, b Backend) error {
		hctx, cancel := context.WithTimeout(ctx, healthTimeout)
		defer cancel()
		return b.Health(hctx)
	})
	if err != nil {
		return out
	}
	for i, rep := range reps {
		out[rep.b.Name()] = errs[i]
	}
	return out
}

// Healthy returns the current health mark per replica.
func (r *Router) Healthy() map[string]bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]bool, len(r.replicas))
	for name, rep := range r.replicas {
		out[name] = rep.healthy.Load()
	}
	return out
}

// probeLoop is the background health prober.
func (r *Router) probeLoop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.CheckHealth(context.Background())
		}
	}
}

// Close stops the prober and closes every registered backend. Further
// routing returns serving.ErrClosed. Idempotent.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	reps := make([]*replica, 0, len(r.replicas))
	for _, rep := range r.replicas {
		reps = append(reps, rep)
	}
	r.mu.Unlock()
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	var first error
	for _, rep := range reps {
		if err := rep.b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
