package costmodel

import (
	"context"
	"fmt"
	"io"

	"github.com/zeroshot-db/zeroshot/internal/baselines"
)

func init() {
	Register(NameScaledCost, Factory{
		New: func(Options) (Estimator, error) {
			return &ScaledCost{model: &baselines.ScaledCost{}}, nil
		},
		Load: func(r io.Reader) (Estimator, error) {
			m, err := baselines.LoadScaledCost(r)
			if err != nil {
				return nil, err
			}
			return &ScaledCost{model: m}, nil
		},
	})
}

// ScaledCost adapts the log-log regression from the optimizer's analytical
// cost estimate to wall-clock runtime. Its featurization is the
// OptimizerCost field of PlanInput.
type ScaledCost struct {
	model *baselines.ScaledCost
}

// Name implements Estimator.
func (s *ScaledCost) Name() string { return NameScaledCost }

// Fit implements Estimator: a closed-form least-squares fit.
func (s *ScaledCost) Fit(ctx context.Context, samples []Sample) (*FitReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	costs := make([]float64, len(samples))
	runtimes := make([]float64, len(samples))
	for i, smp := range samples {
		if smp.OptimizerCost <= 0 {
			return nil, fmt.Errorf("sample %d: scaledcost estimator needs a positive OptimizerCost", i)
		}
		costs[i] = smp.OptimizerCost
		runtimes[i] = smp.RuntimeSec
	}
	if err := s.model.Fit(costs, runtimes); err != nil {
		return nil, err
	}
	return &FitReport{Samples: len(samples)}, nil
}

// predict maps one input's optimizer cost to seconds.
func (s *ScaledCost) predict(in PlanInput) (float64, error) {
	return s.model.Predict(in.OptimizerCost), nil
}

// PredictBatch implements Estimator.
func (s *ScaledCost) PredictBatch(ctx context.Context, ins []PlanInput) ([]float64, error) {
	return predictSerial(ctx, ins, s.predict)
}

// Save implements Estimator.
func (s *ScaledCost) Save(w io.Writer) error { return s.model.Save(w) }
