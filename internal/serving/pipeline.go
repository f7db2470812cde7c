package serving

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/metrics"
	"github.com/zeroshot-db/zeroshot/internal/obs"
	"github.com/zeroshot-db/zeroshot/internal/optimizer"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/sqlparse"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// Pipeline-stage names, in execution order. They key the per-stage
// latency maps in DatabaseStats.
const (
	StageParse     = "parse"
	StageOptimize  = "optimize"
	StageFeaturize = "featurize"
	StageEncode    = "encode"
	StagePredict   = "predict"
)

// dbSession is the per-attached-database pipeline state, built once at
// AttachDatabase: collected statistics, the optimizer over them, the plan
// cache, and per-stage latency recorders. Hoisting this out of the
// request path is what makes handlers read-only and lock-free — the old
// server rebuilt nothing per request but could serve only one database;
// a Session keeps one of these per attached database.
type dbSession struct {
	name  string
	db    *storage.Database
	st    *stats.DBStats
	opt   *optimizer.Optimizer
	cache *costmodel.PlanCache
	lat   map[string]*metrics.LatencyRecorder
}

func newDBSession(name string, db *storage.Database, cacheSize int) *dbSession {
	st := stats.Collect(db, stats.DefaultBuckets, stats.DefaultMCVs)
	d := &dbSession{
		name:  name,
		db:    db,
		st:    st,
		opt:   optimizer.New(db.Schema, st, nil, optimizer.DefaultCostParams()),
		cache: costmodel.NewPlanCache(cacheSize),
		lat:   map[string]*metrics.LatencyRecorder{},
	}
	for _, name := range []string{StageParse, StageOptimize, StageFeaturize} {
		d.lat[name] = &metrics.LatencyRecorder{}
	}
	return d
}

// prepare turns one SQL text into a prediction input, consulting the plan
// cache first. The returned bool reports a cache hit; the returned string
// is the statement's fingerprint (the plan-cache key, echoed to clients
// so feedback can join back to the retained plan). The plan is NOT
// executed: predictions see exactly what a database would know before
// running the query. The caller's ctx is checked before each stage so an
// impatient client stops paying for optimization it no longer wants; a
// ctx error is returned bare (not wrapped in ErrBadQuery — the statement
// was fine, the client gave up).
//
// tr is an optional sampled trace: each executed stage records a span
// alongside its latency observation (tr is usually nil — span recording
// is nil-safe and free).
//
// borrowed says the caller may overwrite sql's bytes once prepare
// returns (see Session.PredictBatch). Then nothing prepare returns or
// retains may alias it: a hit returns the cache's own key, and a miss
// copies the text once before the parser, whose Query keeps substrings
// of its input, or any error sees it. An owned sql (a single predict's)
// is kept as it is.
func (d *dbSession) prepare(ctx context.Context, sql string, borrowed bool, tr *obs.Trace) (costmodel.PlanInput, bool, string, error) {
	cached, fp, ok := d.cache.Lookup(sql)
	if ok {
		return cached, true, fp, nil
	}
	if borrowed {
		sql = strings.Clone(sql)
	}
	if err := ctx.Err(); err != nil {
		return costmodel.PlanInput{}, false, fp, err
	}
	q, err := d.parse(sql, tr)
	if err != nil {
		return costmodel.PlanInput{}, false, fp, err
	}
	if err := ctx.Err(); err != nil {
		return costmodel.PlanInput{}, false, fp, err
	}
	start := time.Now()
	p, err := d.opt.Plan(q)
	d.observe(StageOptimize, start, tr)
	if err != nil {
		return costmodel.PlanInput{}, false, fp, fmt.Errorf("%s: %w: %w", StageOptimize, err, ErrBadQuery)
	}
	if err := ctx.Err(); err != nil {
		return costmodel.PlanInput{}, false, fp, err
	}
	// Featurize assembles the estimator-facing prediction input. The deep
	// featurization is owned by each estimator adapter: the zero-shot
	// graph is memoized per entry in its EncodedPlan, and costmodel's
	// featCache holds only the baselines' per-database vocabularies and
	// statistics. This stage builds the shared context they all consume.
	start = time.Now()
	in := costmodel.PlanInput{
		DB:            d.db,
		Query:         q,
		Plan:          p,
		OptimizerCost: optimizer.TotalCost(p),
		// The encoding memo lives and dies with the plan-cache entry:
		// the first prediction of this shape encodes the graph, every
		// repeat skips PlanEncoder.Encode entirely.
		Enc: costmodel.NewEncodedPlan(),
	}
	d.observe(StageFeaturize, start, tr)
	d.cache.Put(fp, in)
	return in, false, fp, nil
}

// parse is the parse stage of prepare and Session.WhatIf. Both the
// parser's error and ErrBadQuery stay in the chain, so callers can match
// either. The Query keeps substrings of sql.
func (d *dbSession) parse(sql string, tr *obs.Trace) (*query.Query, error) {
	start := time.Now()
	q, err := sqlparse.Parse(sql, d.db.Schema)
	d.observe(StageParse, start, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %w", StageParse, err, ErrBadQuery)
	}
	return q, nil
}

// observe records one executed stage that began at start: its latency
// observation and, when tr samples the request, its span.
func (d *dbSession) observe(stage string, start time.Time, tr *obs.Trace) {
	d.lat[stage].Observe(time.Since(start))
	tr.Span(stage, start)
}

// stats snapshots the database's stage latencies and plan caches.
func (d *dbSession) stats() DatabaseStats {
	stages := make(map[string]metrics.LatencySummary, len(d.lat))
	for name, l := range d.lat {
		stages[name] = l.Snapshot()
	}
	return DatabaseStats{
		Database:  d.name,
		PlanCache: d.cache.Stats(),
		Stages:    stages,
	}
}
