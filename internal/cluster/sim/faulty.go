package sim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/cluster"
	"github.com/zeroshot-db/zeroshot/internal/serving"
	"github.com/zeroshot-db/zeroshot/internal/whatif"
)

// Faulty is the harness's one fault gate: every backend a Sim builds —
// a scripted Replica or a genuine serving stack from Config.NewBackend
// (cluster.NewInProcess over a serving.Session) — sits behind one.
// Crash and partition fail every call with the backend-down class, slow
// stalls each call past the router's patience. The scripted Replica
// checks routing invariants cheaply; a real backend checks them against
// real parse/plan/predict behaviour.
type Faulty struct {
	inner cluster.Backend
	slow  time.Duration

	mu          sync.Mutex
	crashed     bool
	partitioned bool
	slowed      bool
}

var _ cluster.Backend = (*Faulty)(nil)

// Apply flips the fault switch an Event selects.
func (f *Faulty) Apply(a Action) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch a {
	case Crash:
		f.crashed = true
	case Partition:
		f.partitioned = true
	case Recover:
		f.crashed, f.partitioned = false, false
	case Slow:
		f.slowed = true
	case Fast:
		f.slowed = false
	}
}

// Up reports whether the backend would answer a call right now: not
// crashed, not partitioned, not slowed past the router's patience.
func (f *Faulty) Up() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.crashed && !f.partitioned && !f.slowed
}

// gate applies the active faults to one incoming call.
func (f *Faulty) gate(ctx context.Context) error {
	f.mu.Lock()
	crashed, partitioned, slowed := f.crashed, f.partitioned, f.slowed
	f.mu.Unlock()
	if crashed {
		return fmt.Errorf("%w: %s crashed", cluster.ErrBackendDown, f.inner.Name())
	}
	if partitioned {
		return fmt.Errorf("%w: %s partitioned", cluster.ErrBackendDown, f.inner.Name())
	}
	if slowed {
		// Stall until the caller's per-attempt deadline gives up on us;
		// if the deadline somehow outlasts the stall, answer normally —
		// slow is slow, not dead.
		select {
		case <-time.After(f.slow):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Name implements cluster.Backend.
func (f *Faulty) Name() string { return f.inner.Name() }

// Predict implements cluster.Backend.
func (f *Faulty) Predict(ctx context.Context, db, model, sql string) (serving.Prediction, error) {
	if err := f.gate(ctx); err != nil {
		return serving.Prediction{}, err
	}
	return f.inner.Predict(ctx, db, model, sql)
}

// PredictBatch implements cluster.Backend.
func (f *Faulty) PredictBatch(ctx context.Context, db, model string, sqls []string) (serving.BatchResult, error) {
	if err := f.gate(ctx); err != nil {
		return serving.BatchResult{}, err
	}
	return f.inner.PredictBatch(ctx, db, model, sqls)
}

// WhatIf implements cluster.Backend.
func (f *Faulty) WhatIf(ctx context.Context, db, model string, req whatif.Request) (*whatif.Report, error) {
	if err := f.gate(ctx); err != nil {
		return nil, err
	}
	return f.inner.WhatIf(ctx, db, model, req)
}

// Feedback implements cluster.Backend.
func (f *Faulty) Feedback(ctx context.Context, db, fingerprint string, actualSec float64) error {
	if err := f.gate(ctx); err != nil {
		return err
	}
	return f.inner.Feedback(ctx, db, fingerprint, actualSec)
}

// Databases implements cluster.Backend.
func (f *Faulty) Databases(ctx context.Context) ([]serving.DatabaseInfo, error) {
	if err := f.gate(ctx); err != nil {
		return nil, err
	}
	return f.inner.Databases(ctx)
}

// Stats implements cluster.Backend.
func (f *Faulty) Stats(ctx context.Context) (serving.Stats, error) {
	if err := f.gate(ctx); err != nil {
		return serving.Stats{}, err
	}
	return f.inner.Stats(ctx)
}

// Health implements cluster.Backend: a slowed backend stalls its probe
// too, so a bounded health check marks it unroutable.
func (f *Faulty) Health(ctx context.Context) error {
	if err := f.gate(ctx); err != nil {
		return err
	}
	return f.inner.Health(ctx)
}

// Close implements cluster.Backend.
func (f *Faulty) Close() error { return f.inner.Close() }
