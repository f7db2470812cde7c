package cluster

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/adapt"
	"github.com/zeroshot-db/zeroshot/internal/collect"
	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/storage"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// ---- scripted fake backend (no serving pipeline) --------------------

// fakeBackend is a scriptable Backend for router unit tests: calls
// answer instantly and deterministically, failures are injected by
// flipping fields, and every call is recorded.
type fakeBackend struct {
	name string

	mu        sync.Mutex
	down      bool          // calls fail with ErrBackendDown
	slow      time.Duration // calls stall this long (checking ctx)
	dbs       map[string]bool
	predicts  int
	whatifs   int
	feedbacks map[string]int // db -> count
}

func newFakeBackend(name string, dbs ...string) *fakeBackend {
	f := &fakeBackend{name: name, dbs: map[string]bool{}, feedbacks: map[string]int{}}
	for _, db := range dbs {
		f.dbs[db] = true
	}
	return f
}

func (f *fakeBackend) setDown(v bool)          { f.mu.Lock(); f.down = v; f.mu.Unlock() }
func (f *fakeBackend) setSlow(d time.Duration) { f.mu.Lock(); f.slow = d; f.mu.Unlock() }
func (f *fakeBackend) predictCount() int       { f.mu.Lock(); defer f.mu.Unlock(); return f.predicts }
func (f *fakeBackend) feedbackCount(db string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.feedbacks[db]
}

func (f *fakeBackend) Name() string { return f.name }

// gate applies the scripted failure modes shared by every call.
func (f *fakeBackend) gate(ctx context.Context, db string, needDB bool) error {
	f.mu.Lock()
	down, slow := f.down, f.slow
	hasDB := !needDB || len(f.dbs) == 0 || f.dbs[db]
	f.mu.Unlock()
	if down {
		return fmt.Errorf("%w: %s scripted down", ErrBackendDown, f.name)
	}
	if slow > 0 {
		select {
		case <-time.After(slow):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if !hasDB {
		return fmt.Errorf("database %q not attached to %s: %w", db, f.name, serving.ErrNotFound)
	}
	return nil
}

// fakePrediction is the deterministic answer: a pure function of
// (db, sql), identical on every replica — which is exactly the property
// the mirrored cluster mode must preserve.
func fakePrediction(db, model, sql string) serving.Prediction {
	h := fnv.New64a()
	io.WriteString(h, db)
	io.WriteString(h, "|")
	io.WriteString(h, sql)
	return serving.Prediction{
		Database:    db,
		Model:       model,
		RuntimeSec:  float64(h.Sum64()%1_000_000) / 1e6,
		Fingerprint: costmodel.Fingerprint(sql),
	}
}

func (f *fakeBackend) Predict(ctx context.Context, db, model, sql string) (serving.Prediction, error) {
	if err := f.gate(ctx, db, true); err != nil {
		return serving.Prediction{}, err
	}
	f.mu.Lock()
	f.predicts++
	f.mu.Unlock()
	return fakePrediction(db, model, sql), nil
}

func (f *fakeBackend) PredictBatch(ctx context.Context, db, model string, sqls []string) (serving.BatchResult, error) {
	if err := f.gate(ctx, db, true); err != nil {
		return serving.BatchResult{}, err
	}
	res := serving.BatchResult{Database: db, Model: model, Items: make([]serving.BatchItem, len(sqls))}
	for i, sql := range sqls {
		res.Items[i].RuntimeSec = fakePrediction(db, model, sql).RuntimeSec
	}
	return res, nil
}

func (f *fakeBackend) WhatIf(ctx context.Context, db, model string, req whatif.Request) (*whatif.Report, error) {
	if err := f.gate(ctx, db, true); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.whatifs++
	f.mu.Unlock()
	rep := &whatif.Report{Database: db, Model: model, Items: len(req.SQL) * (len(req.Candidates) + 1)}
	for _, sql := range req.SQL {
		rep.Baseline.Queries = append(rep.Baseline.Queries, whatif.QueryResult{SQL: sql})
		rep.Baseline.TotalSec += fakePrediction(db, model, sql).RuntimeSec
	}
	rep.Baseline.Name = "baseline"
	for _, c := range req.Candidates {
		rep.Variants = append(rep.Variants, whatif.VariantResult{Name: c, Indexes: []string{c}, TotalSec: rep.Baseline.TotalSec / 2})
	}
	return rep, nil
}

func (f *fakeBackend) whatifCount() int { f.mu.Lock(); defer f.mu.Unlock(); return f.whatifs }

func (f *fakeBackend) Feedback(ctx context.Context, db, fingerprint string, actualSec float64) error {
	if err := f.gate(ctx, db, true); err != nil {
		return err
	}
	f.mu.Lock()
	f.feedbacks[db]++
	f.mu.Unlock()
	return nil
}

func (f *fakeBackend) Databases(ctx context.Context) ([]serving.DatabaseInfo, error) {
	if err := f.gate(ctx, "", false); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]serving.DatabaseInfo, 0, len(f.dbs))
	for db := range f.dbs {
		out = append(out, serving.DatabaseInfo{Name: db, Schema: db})
	}
	return out, nil
}

func (f *fakeBackend) Stats(ctx context.Context) (serving.Stats, error) {
	if err := f.gate(ctx, "", false); err != nil {
		return serving.Stats{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return serving.Stats{
		Requests: int64(f.predicts),
		Models:   []serving.ModelStats{{Name: "fake-" + f.name, Generation: 1}},
	}, nil
}

func (f *fakeBackend) Health(ctx context.Context) error { return f.gate(ctx, "", false) }
func (f *fakeBackend) Close() error                     { return nil }

// ---- real-session fixtures (for in-process backend tests) -----------

// adaptableEstimator is a deterministic costmodel.Estimator that also
// supports Clone + FineTune, so cluster tests can run real adapt.Loops
// without training a neural model. Predictions are a fixed function of
// the optimizer cost; delay models per-batch inference cost (the
// replica-scaling benchmark needs work worth parallelizing).
type adaptableEstimator struct {
	name  string
	bias  float64
	delay time.Duration
}

func (e *adaptableEstimator) Name() string { return e.name }

func (e *adaptableEstimator) Fit(ctx context.Context, samples []costmodel.Sample) (*costmodel.FitReport, error) {
	return &costmodel.FitReport{Samples: len(samples)}, nil
}

func (e *adaptableEstimator) PredictBatch(ctx context.Context, ins []costmodel.PlanInput) ([]float64, error) {
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, len(ins))
	for i, in := range ins {
		out[i] = 0.001 + e.bias + in.OptimizerCost*1e-9
	}
	return out, nil
}

func (e *adaptableEstimator) Save(w io.Writer) error { return nil }

func (e *adaptableEstimator) Clone() (costmodel.Estimator, error) {
	return &adaptableEstimator{name: e.name, bias: e.bias}, nil
}

func (e *adaptableEstimator) FineTune(ctx context.Context, samples []costmodel.Sample, epochs int, lr float64) (*costmodel.FitReport, error) {
	return &costmodel.FitReport{Samples: len(samples)}, nil
}

var (
	_ costmodel.Estimator = (*adaptableEstimator)(nil)
	_ costmodel.Cloner    = (*adaptableEstimator)(nil)
	_ costmodel.FineTuner = (*adaptableEstimator)(nil)
)

// clusterFixture is the shared real-database test bed: two small
// generated databases with executable SQL for each.
type clusterFixture struct {
	dbs  map[string]*storage.Database
	sqls map[string][]string
}

var (
	fixOnce sync.Once
	fix     clusterFixture
	fixErr  error
)

// fixtures builds (once) two tiny databases for in-process replica
// tests.
func fixtures(t testing.TB) clusterFixture {
	t.Helper()
	fixOnce.Do(func() {
		fix = clusterFixture{dbs: map[string]*storage.Database{}, sqls: map[string][]string{}}
		build := func(name string, gen func(float64) (*storage.Database, error)) error {
			db, err := gen(0.03)
			if err != nil {
				return err
			}
			recs, err := collect.Run(db, collect.Options{Queries: 8, Seed: 7})
			if err != nil {
				return err
			}
			fix.dbs[name] = db
			for _, r := range recs {
				fix.sqls[name] = append(fix.sqls[name], r.Query.SQL())
			}
			return nil
		}
		if fixErr = build("imdb", datagen.IMDBLike); fixErr != nil {
			return
		}
		fixErr = build("ssb", datagen.SSBLike)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

// newReplica builds one in-process replica with every fixture database
// and a fresh adaptable estimator attached, plus an adapt.Loop when
// withLoop is set.
func newReplica(t testing.TB, name string, withLoop bool) *InProcess {
	return newReplicaDelay(t, name, withLoop, 0)
}

// newReplicaDelay is newReplica with a simulated per-batch inference
// cost — the benchmark's knob for the inference-bound regime.
func newReplicaDelay(t testing.TB, name string, withLoop bool, delay time.Duration) *InProcess {
	t.Helper()
	f := fixtures(t)
	sess := serving.NewSession(serving.Config{})
	for db, d := range f.dbs {
		if err := sess.AttachDatabase(db, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.AttachModel(&adaptableEstimator{name: "fake", delay: delay}); err != nil {
		t.Fatal(err)
	}
	var loop *adapt.Loop
	if withLoop {
		var err error
		loop, err = adapt.New(sess, adapt.Config{Model: "fake"})
		if err != nil {
			t.Fatal(err)
		}
	}
	b, err := NewInProcess(name, sess, loop)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// errIsAny reports whether err matches any of the targets.
func errIsAny(err error, targets ...error) bool {
	for _, t := range targets {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}
