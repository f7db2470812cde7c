package whatif

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/datagen"
	"github.com/zeroshot-db/zeroshot/internal/query"
	"github.com/zeroshot-db/zeroshot/internal/stats"
	"github.com/zeroshot-db/zeroshot/internal/storage"
)

// fakeEst is a deterministic, instant Estimator: predictions are a pure
// function of the optimizer cost, so sweep results are exactly
// reproducible by any code that plans the same (variant, statement)
// pairs. Batch calls and sizes are recorded to assert fusion; poison
// injects per-input failures; block stalls PredictBatch until the
// context dies (for cancellation tests).
type fakeEst struct {
	poison     func(costmodel.PlanInput) error
	block      bool
	batchCalls atomic.Int64
	batchMax   atomic.Int64
}

func (f *fakeEst) Name() string { return "fake" }

func (f *fakeEst) Fit(ctx context.Context, samples []costmodel.Sample) (*costmodel.FitReport, error) {
	return &costmodel.FitReport{Samples: len(samples)}, nil
}

func (f *fakeEst) PredictBatch(ctx context.Context, ins []costmodel.PlanInput) ([]float64, error) {
	f.batchCalls.Add(1)
	if n := int64(len(ins)); n > f.batchMax.Load() {
		f.batchMax.Store(n)
	}
	if f.block {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	out := make([]float64, len(ins))
	for i, in := range ins {
		err := ctx.Err()
		if err == nil && f.poison != nil {
			err = f.poison(in)
		}
		if err != nil {
			return nil, err
		}
		out[i] = 0.001 + in.OptimizerCost*1e-9
	}
	return out, nil
}

func (f *fakeEst) Save(w io.Writer) error { return nil }

var (
	fixOnce sync.Once
	fixDB   *storage.Database
	fixSt   *stats.DBStats
	fixQs   []*query.Query
	fixErr  error
)

// fixture builds (once) a small IMDB-like database, collected statistics
// and a synthetic workload. Queries are generated, never executed, so
// the database starts with zero materialized indexes — which the
// no-mutation tests rely on.
func fixture(t testing.TB) (*storage.Database, *stats.DBStats, []*query.Query) {
	t.Helper()
	fixOnce.Do(func() {
		fixDB, fixErr = datagen.IMDBLike(0.03)
		if fixErr != nil {
			return
		}
		fixSt = stats.Collect(fixDB, stats.DefaultBuckets, stats.DefaultMCVs)
		fixQs, fixErr = query.Synthetic(fixDB, 10, 21)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixDB, fixSt, fixQs
}
