package costmodel

import (
	"context"
	"fmt"
	"io"

	"github.com/zeroshot-db/zeroshot/internal/baselines"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
)

func init() {
	Register(NameMSCN, Factory{
		New: func(opts Options) (Estimator, error) {
			cfg := baselines.DefaultMSCNConfig()
			opts.overrideNeural(&cfg.Hidden, &cfg.Epochs, &cfg.BatchSize, &cfg.LR, &cfg.Seed)
			return &MSCN{model: baselines.NewMSCN(cfg)}, nil
		},
		Load: func(r io.Reader) (Estimator, error) {
			m, err := baselines.LoadMSCN(r)
			if err != nil {
				return nil, err
			}
			return &MSCN{model: m}, nil
		},
	})
}

// MSCN adapts the multi-set convolutional baseline. It owns the set-based
// featurization: each input's Query is featurized with the input
// database's one-hot vocabulary and statistics (cached per database) —
// the non-transferable encoding whose failure to generalize across
// databases the paper demonstrates.
type MSCN struct {
	model *baselines.MSCN
	feats featCache
}

// Name implements Estimator.
func (m *MSCN) Name() string { return NameMSCN }

func (m *MSCN) featurize(in PlanInput) (*encoding.MSCNFeatures, error) {
	if in.DB == nil || in.Query == nil {
		return nil, fmt.Errorf("mscn estimator needs DB and Query inputs")
	}
	vocab, st := m.feats.get(in.DB)
	return encoding.NewMSCNFeaturizer(vocab, st).Featurize(in.Query), nil
}

// Fit implements Estimator.
func (m *MSCN) Fit(ctx context.Context, samples []Sample) (*FitReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ms := make([]baselines.MSCNSample, len(samples))
	for i, s := range samples {
		f, err := m.featurize(s.PlanInput)
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		ms[i] = baselines.MSCNSample{Feats: f, RuntimeSec: s.RuntimeSec}
	}
	if err := m.model.Train(ms); err != nil {
		return nil, err
	}
	return &FitReport{Samples: len(ms)}, nil
}

// Predict implements Estimator.
func (m *MSCN) Predict(ctx context.Context, in PlanInput) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	f, err := m.featurize(in)
	if err != nil {
		return 0, err
	}
	return m.model.Predict(f), nil
}

// PredictBatch implements Estimator.
func (m *MSCN) PredictBatch(ctx context.Context, ins []PlanInput) ([]float64, error) {
	return predictSerial(ctx, ins, m.Predict)
}

// Save implements Estimator.
func (m *MSCN) Save(w io.Writer) error { return m.model.Save(w) }
