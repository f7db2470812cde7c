// Package metrics implements the evaluation metrics of the paper:
// the Q-error ("the factor the predicted runtime deviates from the true
// runtime") and its summary statistics (median, 95th percentile, max).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// QError returns max(pred/actual, actual/pred), the symmetric relative
// error factor; always >= 1 for positive inputs. Non-positive inputs are
// clamped to a tiny epsilon so degenerate predictions yield huge (not
// NaN) errors.
func QError(pred, actual float64) float64 {
	const eps = 1e-9
	if pred < eps {
		pred = eps
	}
	if actual < eps {
		actual = eps
	}
	q := pred / actual
	if q < 1 {
		q = 1 / q
	}
	return q
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs using nearest-rank
// on a sorted copy. It panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("metrics: percentile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return nearestRank(sorted, p)
}

// nearestRank indexes the p-quantile of an ascending, non-empty slice.
func nearestRank(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// Max returns the maximum.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("metrics: max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("metrics: mean of empty slice")
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Summary bundles the Q-error statistics the paper reports (Table 1).
type Summary struct {
	Median float64
	P95    float64
	Max    float64
	Mean   float64
	N      int
}

// Summarize computes the Q-error summary of prediction/actual pairs.
func Summarize(preds, actuals []float64) (Summary, error) {
	if len(preds) != len(actuals) {
		return Summary{}, fmt.Errorf("metrics: %d predictions vs %d actuals", len(preds), len(actuals))
	}
	if len(preds) == 0 {
		return Summary{}, fmt.Errorf("metrics: empty evaluation set")
	}
	qs := make([]float64, len(preds))
	for i := range preds {
		qs[i] = QError(preds[i], actuals[i])
	}
	return Summary{
		Median: Median(qs),
		P95:    Percentile(qs, 0.95),
		Max:    Max(qs),
		Mean:   Mean(qs),
		N:      len(qs),
	}, nil
}

// String renders the summary like the paper's tables.
func (s Summary) String() string {
	return fmt.Sprintf("median=%.2f p95=%.2f max=%.2f (n=%d)", s.Median, s.P95, s.Max, s.N)
}
