// Package sim is the deterministic simulation harness for the cluster
// router: a seeded workload generator drives a real cluster.Router over
// scriptable in-process backends while a fault schedule crashes,
// slows, partitions, recovers and adds replicas at exact request steps
// — and the harness checks the invariants failover must keep, recording
// every breach as a Violation instead of panicking, so one run reports
// every problem it saw.
//
// The invariants:
//
//  1. No lost requests — a request issued while at least one of its
//     candidate replicas is up must succeed (failover found a path).
//  2. Consistent predictions — the same (database, SQL) pair yields the
//     bitwise-identical prediction no matter which replica served it,
//     before, during, or after a failover.
//  3. Feedback ownership — every feedback lands on the replica that is
//     first up in the database's ring order at send time: the same
//     replica serving that database's predictions, hence the one
//     holding its cached plans and adaptation windows.
//  4. Minimal rebalance — a replica added mid-run takes over only keys
//     that now hash to it; no database moves between two old replicas.
//
// Everything is single-goroutine and seeded: the same Config produces
// the same request sequence, the same fault timings (faults fire at
// request steps, not wall-clock times), and therefore the same Result.
// Real time appears only inside a Slow fault, where the router's
// per-attempt timeout — not the harness — decides the outcome, and the
// margins are wide enough (SlowLatency >> CallTimeout) that the
// decision is effectively deterministic too.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/cluster"
)

// Action is one fault-schedule verb.
type Action int

const (
	// Crash makes a replica fail every call with the backend-down class.
	Crash Action = iota
	// Recover heals a crashed or partitioned replica.
	Recover
	// Slow makes a replica stall each call for SlowLatency — long past
	// the router's per-attempt timeout, so calls fail over without the
	// replica ever looking "down" to itself.
	Slow
	// Fast removes a Slow fault.
	Fast
	// Partition makes a replica unreachable (indistinguishable from
	// Crash to the router, kept distinct for schedule readability and
	// per-fault accounting).
	Partition
	// AddReplica registers a brand-new replica mid-run and checks the
	// rebalance-minimality invariant against the ownership map captured
	// just before.
	AddReplica
)

// String names an Action for violation messages.
func (a Action) String() string {
	switch a {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Slow:
		return "slow"
	case Fast:
		return "fast"
	case Partition:
		return "partition"
	case AddReplica:
		return "add-replica"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Event is one scheduled fault: at the given request step, apply the
// action to the replica.
type Event struct {
	Step    int
	Action  Action
	Replica string
}

// feedbackRecorder is the optional probe behind the feedback-ownership
// invariant. Backends that do not record feedback (real sessions) skip
// that check — the router's routing is still exercised, only the
// landed-where assertion needs the probe.
type feedbackRecorder interface {
	LastFeedback() FeedbackRecord
}

// Config sizes one simulation.
type Config struct {
	// Replicas is the starting replica count (named s0..s{n-1}).
	Replicas int
	// Databases are the key population routed over (defaults to 6
	// synthetic names).
	Databases []string
	// Requests is how many prediction requests the workload issues.
	Requests int
	// Seed drives the workload generator; same seed, same run.
	Seed int64
	// Workload, when set, replaces the synthetic SQL generator: step i
	// issues Workload[i % len(Workload)] — real statements for backends
	// that actually parse and plan. Empty keeps the synthetic generator.
	Workload []string
	// Model is the model name every request asks for (default "model";
	// scripted replicas ignore it, real sessions resolve it).
	Model string
	// NewBackend builds one replica (initial and AddReplica alike). Nil
	// selects the scripted Replica; return real sessions here to run the
	// harness over actual serving stacks. Either way the harness wraps
	// the backend in Faulty, so the schedule's faults reach it.
	NewBackend func(name string) (cluster.Backend, error)
	// FeedbackEvery sends a feedback for every k-th successful
	// prediction (0 disables feedback traffic).
	FeedbackEvery int
	// Schedule is the fault script, applied at request-step boundaries.
	Schedule []Event
	// CallTimeout is the router's per-attempt bound (default 5ms) and
	// SlowLatency the stall a Slow fault injects (default 50ms). Keep
	// SlowLatency an order of magnitude above CallTimeout so the
	// slow-replica outcome never races.
	CallTimeout time.Duration
	SlowLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if len(c.Databases) == 0 {
		c.Databases = []string{"imdb", "ssb", "tpch", "accounts", "web", "sensors"}
	}
	if c.Requests <= 0 {
		c.Requests = 200
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 5 * time.Millisecond
	}
	if c.SlowLatency <= 0 {
		c.SlowLatency = 50 * time.Millisecond
	}
	if c.Model == "" {
		c.Model = "model"
	}
	if c.NewBackend == nil {
		c.NewBackend = func(name string) (cluster.Backend, error) { return NewReplica(name), nil }
	}
	return c
}

// Outcome is one workload request's fate.
type Outcome struct {
	Step        int
	DB          string
	SQL         string
	Err         error
	RuntimeSec  float64
	Fingerprint string
	// UpCandidates is how many of the database's candidate replicas
	// were up when the request was issued — 0 means a failure here is
	// expected, not lost.
	UpCandidates int
}

// Violation is one invariant breach.
type Violation struct {
	Step    int
	Message string
}

func (v Violation) String() string { return fmt.Sprintf("step %d: %s", v.Step, v.Message) }

// Result is a finished run.
type Result struct {
	Outcomes  []Outcome
	Succeeded int
	// FailedExpected counts requests that failed while no candidate was
	// up (all-down windows). FailedLost counts requests that failed
	// with a path available — each one is also a Violation.
	FailedExpected int
	FailedLost     int
	FeedbackSent   int
	// Failovers is the router's count of requests that needed at least
	// one failover hop.
	Failovers  int64
	Violations []Violation
}

// Sim drives one Router through one seeded run. Not safe for concurrent
// use — determinism is the point.
type Sim struct {
	cfg      Config
	router   *cluster.Router
	replicas map[string]*Faulty
	rng      *rand.Rand
	next     int // suffix for AddReplica names
	step     int // next request step (for incremental driving)
	finished bool

	res Result
	// expectedRuntime pins the first prediction seen per (db|sql) so
	// later answers — possibly from other replicas — can be compared
	// bitwise.
	expectedRuntime map[string]float64
}

// New builds the simulation: a router (no background prober — the
// harness drives health checks at deterministic points) over
// cfg.Replicas scripted replicas.
func New(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	s := &Sim{
		cfg:             cfg,
		router:          cluster.NewRouter(cluster.Config{CallTimeout: cfg.CallTimeout}),
		replicas:        map[string]*Faulty{},
		rng:             rand.New(rand.NewSource(cfg.Seed)),
		expectedRuntime: map[string]float64{},
	}
	for i := 0; i < cfg.Replicas; i++ {
		if err := s.addReplica(fmt.Sprintf("s%d", i)); err != nil {
			s.router.Close()
			return nil, err
		}
	}
	s.next = cfg.Replicas
	return s, nil
}

func (s *Sim) addReplica(name string) error {
	b, err := s.cfg.NewBackend(name)
	if err != nil {
		return err
	}
	rep := &Faulty{inner: b, slow: s.cfg.SlowLatency}
	if err := s.router.Register(rep); err != nil {
		return err
	}
	s.replicas[name] = rep
	return nil
}

// Router exposes the router under test (read-only use in assertions).
func (s *Sim) Router() *cluster.Router { return s.router }

// Replica returns a backend by name as built — the scripted *Replica or
// NewBackend's result, without its fault gate (nil if unknown).
func (s *Sim) Replica(name string) cluster.Backend {
	if rep := s.replicas[name]; rep != nil {
		return rep.inner
	}
	return nil
}

// Fault applies one action to a replica outside the schedule — the
// incremental-driving analogue of an Event — then re-probes health so
// the router's marks deterministically reflect the new fault state.
func (s *Sim) Fault(ctx context.Context, name string, a Action) error {
	rep := s.replicas[name]
	if rep == nil {
		return fmt.Errorf("sim: unknown replica %q", name)
	}
	rep.Apply(a)
	s.router.CheckHealth(ctx)
	return nil
}

// ResetExpectations clears the bitwise-consistency map. Call it when
// the fleet's serving generation legitimately changes (a model bundle
// activated or rolled back): predictions after the swap must agree with
// each other, not with the previous generation.
func (s *Sim) ResetExpectations() {
	s.expectedRuntime = map[string]float64{}
}

// violatef records one invariant breach.
func (s *Sim) violatef(step int, format string, args ...any) {
	s.res.Violations = append(s.res.Violations, Violation{Step: step, Message: fmt.Sprintf(format, args...)})
}

// owners snapshots every database's current ring owner.
func (s *Sim) owners() map[string]string {
	out := make(map[string]string, len(s.cfg.Databases))
	for _, db := range s.cfg.Databases {
		out[db] = s.router.Owner(db)
	}
	return out
}

// applyEvents fires every scheduled event for this step, then re-probes
// health once so the router's marks deterministically reflect the new
// fault state before the step's request routes.
func (s *Sim) applyEvents(ctx context.Context, step int) {
	applied := false
	for _, ev := range s.cfg.Schedule {
		if ev.Step != step {
			continue
		}
		applied = true
		switch ev.Action {
		case AddReplica:
			before := s.owners()
			name := ev.Replica
			if name == "" {
				name = fmt.Sprintf("s%d", s.next)
				s.next++
			}
			if err := s.addReplica(name); err != nil {
				s.violatef(step, "add-replica %s failed: %v", name, err)
				continue
			}
			for db, was := range s.owners() {
				if was != before[db] && was != name {
					s.violatef(step, "rebalance moved %q from %s to %s; only moves to new replica %s are minimal",
						db, before[db], was, name)
				}
			}
		default:
			rep := s.replicas[ev.Replica]
			if rep == nil {
				s.violatef(step, "schedule names unknown replica %q", ev.Replica)
				continue
			}
			rep.Apply(ev.Action)
		}
	}
	if applied {
		s.router.CheckHealth(ctx)
	}
}

// upCandidates returns how many of db's candidate replicas are up, and
// the first up candidate in ring (failover) order.
func (s *Sim) upCandidates(db string) (int, string) {
	up, first := 0, ""
	for _, name := range s.router.Route(db) {
		rep := s.replicas[name]
		if rep != nil && rep.Up() {
			up++
			if first == "" {
				first = name
			}
		}
	}
	return up, first
}

// Step advances the workload by n request steps (bounded by the
// configured total) and returns the number actually executed. Between
// calls the driver may apply Faults, reset expectations, or mutate the
// backends — the seeded request sequence is unaffected by the pauses.
func (s *Sim) Step(ctx context.Context, n int) int {
	ran := 0
	for ; ran < n && s.step < s.cfg.Requests && !s.finished; ran++ {
		s.runStep(ctx, s.step)
		s.step++
	}
	return ran
}

// Finish closes the router and returns the accumulated result. Further
// Step calls are no-ops.
func (s *Sim) Finish(ctx context.Context) Result {
	if !s.finished {
		if st, err := s.router.Stats(ctx); err == nil {
			s.res.Failovers = st.Failovers
		}
		s.router.Close()
		s.finished = true
	}
	return s.res
}

// runStep issues one workload request and checks the invariants.
func (s *Sim) runStep(ctx context.Context, step int) {
	s.applyEvents(ctx, step)
	db := s.cfg.Databases[s.rng.Intn(len(s.cfg.Databases))]
	var sql string
	if len(s.cfg.Workload) > 0 {
		sql = s.cfg.Workload[step%len(s.cfg.Workload)]
		s.rng.Intn(10_000) // keep the seeded stream aligned across configs
	} else {
		sql = fmt.Sprintf("SELECT COUNT(*) FROM t WHERE x > %d", s.rng.Intn(10_000))
	}
	up, firstUp := s.upCandidates(db)
	p, err := s.router.Predict(ctx, db, s.cfg.Model, sql)
	o := Outcome{Step: step, DB: db, SQL: sql, Err: err, UpCandidates: up}
	if err == nil {
		o.RuntimeSec, o.Fingerprint = p.RuntimeSec, p.Fingerprint
		s.res.Succeeded++
		key := db + "|" + sql
		if want, seen := s.expectedRuntime[key]; !seen {
			s.expectedRuntime[key] = p.RuntimeSec
		} else if want != p.RuntimeSec {
			s.violatef(step, "prediction for %q on %q changed: %v then %v (failover must not change answers)",
				sql, db, want, p.RuntimeSec)
		}
		if s.cfg.FeedbackEvery > 0 && s.res.Succeeded%s.cfg.FeedbackEvery == 0 {
			s.feedback(ctx, step, db, p.Fingerprint, p.RuntimeSec, firstUp)
		}
	} else if up > 0 {
		s.res.FailedLost++
		s.violatef(step, "request for %q LOST: %d candidate(s) up but Predict failed: %v", db, up, err)
	} else {
		s.res.FailedExpected++
	}
	s.res.Outcomes = append(s.res.Outcomes, o)
}

// feedback routes one observed runtime and checks it lands on the
// replica expected to own the database right now.
func (s *Sim) feedback(ctx context.Context, step int, db, fp string, runtime float64, expect string) {
	if err := s.router.Feedback(ctx, db, fp, runtime*1.5); err != nil {
		s.violatef(step, "feedback for %q failed: %v", db, err)
		return
	}
	s.res.FeedbackSent++
	rep, ok := s.Replica(expect).(feedbackRecorder)
	if !ok {
		return
	}
	if got := rep.LastFeedback(); got.DB != db || got.Fingerprint != fp {
		s.violatef(step, "feedback for %q did not reach owning replica %s (its last feedback: %+v)",
			db, expect, got)
	}
}
