package baselines

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// ScaledCost is the "Scaled Optimizer Cost" baseline: a least-squares fit
// of log(runtime) = a*log(cost) + b, i.e. a power-law rescaling of the
// optimizer's internal cost metric to wall-clock runtime.
type ScaledCost struct {
	A, B   float64
	fitted bool
}

// Fit estimates the parameters from (optimizer cost, runtime) pairs by
// ordinary least squares in log-log space.
func (s *ScaledCost) Fit(costs, runtimes []float64) error {
	if len(costs) != len(runtimes) {
		return fmt.Errorf("baselines: %d costs vs %d runtimes", len(costs), len(runtimes))
	}
	if len(costs) < 2 {
		return fmt.Errorf("baselines: scaled cost needs at least 2 samples")
	}
	for i := range costs {
		if !positiveFinite(costs[i]) || !positiveFinite(runtimes[i]) {
			return fmt.Errorf("baselines: invalid cost %v / runtime %v at %d", costs[i], runtimes[i], i)
		}
	}
	n := 0.0
	var sx, sy, sxx, sxy float64
	for i := range costs {
		x, y := math.Log(costs[i]), math.Log(runtimes[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		// Degenerate: every cost identical; fall back to constant model.
		s.A = 0
		s.B = sy / n
		s.fitted = true
		return nil
	}
	s.A = (n*sxy - sx*sy) / den
	s.B = (sy - s.A*sx) / n
	s.fitted = true
	return nil
}

// Predict returns the predicted runtime in seconds for an optimizer cost.
func (s *ScaledCost) Predict(cost float64) float64 {
	if !s.fitted {
		return 1
	}
	if cost <= 0 {
		cost = 1e-9
	}
	return clampExp(s.A*math.Log(cost) + s.B)
}

// savedScaledCost is the gob wire form of the regression baseline.
type savedScaledCost struct {
	A, B   float64
	Fitted bool
}

// Save writes the fitted regression parameters to w.
func (s *ScaledCost) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(savedScaledCost{A: s.A, B: s.B, Fitted: s.fitted}); err != nil {
		return fmt.Errorf("baselines: encode ScaledCost: %w", err)
	}
	return nil
}

// LoadScaledCost reads a model saved by (*ScaledCost).Save.
func LoadScaledCost(r io.Reader) (*ScaledCost, error) {
	var sv savedScaledCost
	if err := gob.NewDecoder(r).Decode(&sv); err != nil {
		return nil, fmt.Errorf("baselines: decode ScaledCost: %w", err)
	}
	return &ScaledCost{A: sv.A, B: sv.B, fitted: sv.Fitted}, nil
}
