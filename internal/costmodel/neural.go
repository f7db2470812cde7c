package costmodel

import (
	"context"
	"fmt"
	"io"

	"github.com/zeroshot-db/zeroshot/internal/baselines"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

func init() {
	registerNeural(NameMSCN, baselines.NewMSCN, func(fc *featCache, in PlanInput) (*encoding.MSCNFeatures, error) {
		if in.DB == nil || in.Query == nil {
			return nil, fmt.Errorf("mscn estimator needs DB and Query inputs")
		}
		return encoding.NewMSCNFeaturizer(fc.get(in.DB)).Featurize(in.Query), nil
	})
	registerNeural(NameE2E, baselines.NewE2E, func(fc *featCache, in PlanInput) (*encoding.E2ENode, error) {
		if in.DB == nil || in.Plan == nil {
			return nil, fmt.Errorf("e2e estimator needs DB and Plan inputs")
		}
		return encoding.NewE2EFeaturizer(fc.get(in.DB)).Featurize(in.Plan), nil
	})
}

// registerNeural registers a neural baseline under name: build makes its
// network, and featurize turns one input into the network's features.
func registerNeural[X any](name string, build func(baselines.Config) *baselines.Net[X], featurize func(*featCache, PlanInput) (X, error)) {
	Register(name, Factory{
		New: func(opts Options) (Estimator, error) {
			cfg := baselines.DefaultConfig()
			opts.overrideNeural(&cfg.Hidden, &cfg.Epochs, &cfg.BatchSize, &cfg.LR, &cfg.Seed)
			return &neural[X]{name: name, model: build(cfg), featurize: featurize}, nil
		},
		Load: func(r io.Reader) (Estimator, error) {
			m, err := baselines.Load(r, build)
			if err != nil {
				return nil, err
			}
			return &neural[X]{name: name, model: m, featurize: featurize}, nil
		},
	})
}

// neural adapts a workload-driven neural baseline: MSCN over each input's
// Query, E2E over its Plan. It owns the one-hot featurization: each input
// is featurized with its own database's vocabulary and statistics (cached
// per database), the non-transferable encoding whose failure to
// generalize across databases the paper demonstrates. Fit on samples from
// several databases, every sample uses its own database's vocabulary: the
// "mechanical" cross-database application of ablation A1.
type neural[X any] struct {
	name      string
	model     *baselines.Net[X]
	featurize func(*featCache, PlanInput) (X, error)
	feats     featCache
}

// Name implements Estimator.
func (m *neural[X]) Name() string { return m.name }

// Fit implements Estimator.
func (m *neural[X]) Fit(ctx context.Context, samples []Sample) (*FitReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	xs := make([]baselines.Sample[X], len(samples))
	for i, s := range samples {
		x, err := m.featurize(&m.feats, s.PlanInput)
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		xs[i] = baselines.Sample[X]{X: x, RuntimeSec: s.RuntimeSec}
	}
	if err := m.model.Train(xs); err != nil {
		return nil, err
	}
	return &FitReport{Samples: len(xs)}, nil
}

// predict featurizes and predicts one input.
func (m *neural[X]) predict(in PlanInput) (float64, error) {
	x, err := m.featurize(&m.feats, in)
	if err != nil {
		return 0, err
	}
	return m.model.Predict(x), nil
}

// PredictBatch implements Estimator.
func (m *neural[X]) PredictBatch(ctx context.Context, ins []PlanInput) ([]float64, error) {
	return predictSerial(ctx, ins, m.predict)
}

// Save implements Estimator.
func (m *neural[X]) Save(w io.Writer) error { return m.model.Save(w) }
