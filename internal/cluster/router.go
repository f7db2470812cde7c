package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// HealthTimeout bounds one health probe (default 2s).
	HealthTimeout time.Duration
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

func (c Config) withDefaults() Config {
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	return c
}

// replica is one registered backend plus the router's view of it.
type replica struct {
	b       Backend
	healthy atomic.Bool
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
	// Per-replica counters, labelled by replica name: served counts
	// requests answered, failed counts calls that hit the backend-down
	// class, rescued counts requests this replica answered after
	// another replica's failure.
	served  metrics.LabelledCounter
	failed  metrics.LabelledCounter
	rescued metrics.LabelledCounter

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewRouter returns a Router with no replicas; Register at least one
// before routing. The background health prober starts only when
// cfg.HealthInterval > 0.
func NewRouter(cfg Config) *Router {
	cfg = cfg.withDefaults()
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

// Deregister removes a replica from the ring and returns its backend
// (not closed — the caller may still own it). Ownership of the removed
// replica's key ranges shifts to their ring successors; everything else
// keeps its owner.
func (r *Router) Deregister(name string) (Backend, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep, ok := r.replicas[name]
	if !ok {
		return nil, false
	}
	r.ring.Remove(name)
	delete(r.replicas, name)
	return rep.b, true
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
// failed" — the class that triggers failover.
func isDownClass(err error) bool {
	return errors.Is(err, ErrBackendDown)
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
// unhealthy and moves on; serving.ErrNotFound moves on (a sharded peer
// may hold the database) but is remembered; anything else is the
// request's own failure and returns immediately.
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
	names := r.ring.Successors(db, 0)
	var healthy, unhealthy []*replica
	for _, n := range names {
		if rep, ok := r.replicas[n]; ok {
			if rep.healthy.Load() {
				healthy = append(healthy, rep)
			} else {
				unhealthy = append(unhealthy, rep)
			}
		}
	}
	r.mu.RUnlock()
	candidates := append(healthy, unhealthy...)
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
			tr.Span("attempt:"+rep.b.Name(), hopStart)
			r.markHealth(rep, true)
			r.served.Inc(rep.b.Name())
			// A failover is any request its ring owner did not serve —
			// whether an attempt failed in-request or the health marks
			// steered around the owner proactively.
			if failed > 0 || rep.b.Name() != owner {
				r.failovers.Inc()
				r.rescued.Inc(rep.b.Name())
				r.events.Record(obs.EventFailoverRescue, "router", map[string]string{
					"replica": rep.b.Name(), "owner": owner, "db": db,
				})
			}
			return nil
		case isDownClass(err):
			tr.Span("attempt:"+rep.b.Name()+":down", hopStart)
			r.markHealth(rep, false)
			r.failed.Inc(rep.b.Name())
			lastDown = err
			failed++
		case errors.Is(err, serving.ErrNotFound):
			tr.Span("attempt:"+rep.b.Name()+":notfound", hopStart)
			notFound = err
			if rep.b.Name() == owner {
				ownerNotFound = true
			}
			failed++
		default:
			tr.Span("attempt:"+rep.b.Name()+":error", hopStart)
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
// like Predict: the owner's prepared-plan and encoded-graph caches are
// warm with the database's workload, so repeated sweeps (an advisor
// iterating on candidates) skip planning and encoding entirely.
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
// sorted-name order per slot, and returns per-replica errors (nil
// entries for successes) aligned with the returned names.
func (r *Router) fanout(ctx context.Context, fn func(ctx context.Context, b Backend) error) (names []string, errs []error, err error) {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return nil, nil, serving.ErrClosed
	}
	reps := make([]*replica, 0, len(r.replicas))
	for _, name := range r.ring.Members() {
		reps = append(reps, r.replicas[name])
	}
	r.mu.RUnlock()
	names = make([]string, len(reps))
	errs = make([]error, len(reps))
	sem := make(chan struct{}, fanoutLimit)
	var wg sync.WaitGroup
	for i, rep := range reps {
		names[i] = rep.b.Name()
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, rep *replica) {
			defer wg.Done()
			defer func() { <-sem }()
			e := r.callOne(ctx, rep.b, fn)
			if isDownClass(e) {
				r.markHealth(rep, false)
				r.failed.Inc(rep.b.Name())
			} else if e == nil {
				r.markHealth(rep, true)
			}
			errs[i] = e
		}(i, rep)
	}
	wg.Wait()
	return names, errs, nil
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

// Models aggregates the union of model names served by reachable
// replicas, sorted.
func (r *Router) Models(ctx context.Context) ([]string, error) {
	set := map[string]bool{}
	var mu sync.Mutex
	_, _, err := r.fanout(ctx, func(ctx context.Context, b Backend) error {
		st, err := b.Stats(ctx)
		if err != nil {
			return err
		}
		mu.Lock()
		for _, m := range st.Models {
			set[m.Name] = true
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
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
	names, errs, err := r.fanout(ctx, func(ctx context.Context, b Backend) error {
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
	r.mu.RLock()
	healthy := map[string]bool{}
	for name, rep := range r.replicas {
		healthy[name] = rep.healthy.Load()
	}
	r.mu.RUnlock()
	for i, name := range names {
		rs := ReplicaStats{
			Name:    name,
			Healthy: healthy[name],
			Served:  r.served.Value(name),
			Failed:  r.failed.Value(name),
			Rescued: r.rescued.Value(name),
		}
		if errs[i] != nil {
			rs.Error = errs[i].Error()
		} else {
			rs.Serving = per[name]
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
	names, errs, err := r.fanout(ctx, func(ctx context.Context, b Backend) error {
		hctx, cancel := context.WithTimeout(ctx, r.cfg.HealthTimeout)
		defer cancel()
		return b.Health(hctx)
	})
	if err != nil {
		return out
	}
	for i, name := range names {
		out[name] = errs[i]
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
