// Package cluster scales the serving layer out: a Router partitions the
// attached databases of many replica backends across a consistent-hash
// Ring and fronts them with one prediction API — health-checked,
// failover-capable, and identical in behavior whether the replicas are
// in-process serving.Sessions (zero serialization, the single-binary
// `zsdb serve -replicas N` mode) or remote `zsdb serve` processes
// reached over HTTP (the `zsdb route -backends ...` mode).
//
// The paper's zero-shot promise — one model priced against databases it
// has never seen — pays off operationally when a deployment fronts
// *many* databases; the cluster layer is what lets that set outgrow one
// process while requests still land on the replica holding the target
// database's plan cache and adaptation window.
//
// Routing is by database name: the Ring's virtual nodes spread names
// across replicas and keep assignments stable when replicas join or
// leave (only the ranges adjacent to the changed member move). A
// request whose owner replica is down or unreachable fails over along
// the ring's successor sequence; cross-replica reads (database listing,
// stats) fan out with bounded concurrency and aggregate.
//
// The deterministic simulation harness in cluster/sim drives a Router
// with a seeded workload and a scripted fault schedule to assert the
// invariants failover must keep: no request lost while any candidate
// replica is healthy, minimal key movement on rebalance, and feedback
// landing on the replica that owns the database.
package cluster

import (
	"context"
	"errors"

	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// ErrBackendDown marks a replica-level failure: the backend crashed,
// the connection failed, the call timed out, or the process is shutting
// down. It is the error class that triggers failover — the request is
// fine, the replica is not. Request-level errors (serving.ErrBadQuery,
// serving.ErrNotFound) are never wrapped in it.
var ErrBackendDown = errors.New("cluster: backend unavailable")

// ErrNoReplica is returned when a request exhausts its failover
// candidates: every replica that could own the database is down or
// unreachable.
var ErrNoReplica = errors.New("cluster: no healthy replica for request")

// ErrNoFeedback marks a backend that cannot ingest feedback (its
// adaptation loop is disabled).
var ErrNoFeedback = errors.New("cluster: backend has no adaptation loop")

// Backend is one replica the Router can route to. The two
// implementations — InProcess over a serving.Session and HTTPBackend
// over a remote `zsdb serve` — expose the same surface, so the Router
// (and the sim harness's fault injectors) never know which kind they
// are driving.
//
// Implementations must be safe for concurrent use. Replica-level
// failures wrap ErrBackendDown or are serving.ErrClosed (a session
// shutting down); request-level failures (serving.ErrBadQuery,
// serving.ErrNotFound, adapt.ErrNoPlan, ErrNoFeedback) are neither,
// because the Router fails over on the former and returns the latter
// to the caller (after trying the other candidates on not-found).
type Backend interface {
	// Name identifies the replica; it is the ring member name, so it
	// must be unique within a Router and stable across health flaps.
	Name() string
	// Predict prices one statement against the backend's copy of db.
	Predict(ctx context.Context, db, model, sql string) (serving.Prediction, error)
	// PredictBatch prices many statements; per-item pipeline errors ride
	// in the result, the error return is request-level. The statements
	// are borrowed for the duration of the call (see
	// serving.Session.PredictBatch): an implementation copies what it
	// keeps, and finishes with them before it returns.
	PredictBatch(ctx context.Context, db, model string, sqls []string) (serving.BatchResult, error)
	// WhatIf runs one what-if sweep against the backend's copy of db.
	// Like every per-database call it wants the owner first; the sweep
	// keeps no plan on the replica, and leaves its plan cache untouched.
	WhatIf(ctx context.Context, db, model string, req whatif.Request) (*whatif.Report, error)
	// Feedback hands an observed runtime to the backend's adaptation
	// loop. It must reach the replica owning db — that replica's plan
	// cache retains the fingerprint's plan and its windows buffer the
	// samples — which is why the Router routes it like a Predict.
	Feedback(ctx context.Context, db, fingerprint string, actualSec float64) error
	// Databases lists the backend's attached databases.
	Databases(ctx context.Context) ([]serving.DatabaseInfo, error)
	// Stats snapshots the backend's serving counters.
	Stats(ctx context.Context) (serving.Stats, error)
	// Health probes liveness cheaply; nil means routable.
	Health(ctx context.Context) error
	// Close releases the backend (in-process: closes the session;
	// HTTP: drops idle connections — the remote process stays up).
	Close() error
}
