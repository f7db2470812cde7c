package costmodel

import (
	"context"
	"fmt"
	"io"

	"github.com/zeroshot-db/zeroshot/internal/baselines"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

func init() {
	Register(NameE2E, Factory{
		New: func(opts Options) (Estimator, error) {
			cfg := baselines.DefaultE2EConfig()
			opts.overrideNeural(&cfg.Hidden, &cfg.Epochs, &cfg.BatchSize, &cfg.LR, &cfg.Seed)
			return &E2E{model: baselines.NewE2E(cfg)}, nil
		},
		Load: func(r io.Reader) (Estimator, error) {
			m, err := baselines.LoadE2E(r)
			if err != nil {
				return nil, err
			}
			return &E2E{model: m}, nil
		},
	})
}

// E2E adapts the tree-structured plan baseline (Sun & Li). It owns the
// one-hot plan featurization: each input's Plan is featurized with the
// input database's vocabulary and statistics (cached per database). When
// fit on samples from several databases, every sample uses its own
// database's vocabulary — the "mechanical" cross-database application of
// ablation A1.
type E2E struct {
	model *baselines.E2E
	feats featCache
}

// Name implements Estimator.
func (m *E2E) Name() string { return NameE2E }

func (m *E2E) featurize(in PlanInput) (*encoding.E2ENode, error) {
	if in.DB == nil || in.Plan == nil {
		return nil, fmt.Errorf("e2e estimator needs DB and Plan inputs")
	}
	vocab, st := m.feats.get(in.DB)
	return encoding.NewE2EFeaturizer(vocab, st).Featurize(in.Plan), nil
}

// Fit implements Estimator.
func (m *E2E) Fit(ctx context.Context, samples []Sample) (*FitReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	es := make([]baselines.E2ESample, len(samples))
	for i, s := range samples {
		root, err := m.featurize(s.PlanInput)
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		es[i] = baselines.E2ESample{Root: root, RuntimeSec: s.RuntimeSec}
	}
	if err := m.model.Train(es); err != nil {
		return nil, err
	}
	return &FitReport{Samples: len(es)}, nil
}

// Predict implements Estimator.
func (m *E2E) Predict(ctx context.Context, in PlanInput) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	root, err := m.featurize(in)
	if err != nil {
		return 0, err
	}
	return m.model.Predict(root), nil
}

// PredictBatch implements Estimator.
func (m *E2E) PredictBatch(ctx context.Context, ins []PlanInput) ([]float64, error) {
	return predictSerial(ctx, ins, m.Predict)
}

// Save implements Estimator.
func (m *E2E) Save(w io.Writer) error { return m.model.Save(w) }
