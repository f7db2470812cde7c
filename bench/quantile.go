package main

import (
	"math"
	"sort"
)

// tailMargin is how many samples must lie beyond a reported percentile:
// a tail quantile with fewer is one or two slow requests, not a property
// of the system.
const tailMargin = 10

// percentile returns the p-quantile (nearest rank) of sorted, lowered
// when needed so that at least tailMargin samples lie beyond it. With
// too few samples for any margin it degrades to the median.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if limit := n - 1 - tailMargin; idx > limit {
		idx = limit
	}
	if mid := (n - 1) / 2; idx < mid {
		idx = mid
	}
	return sorted[idx]
}

// median returns the lower median of xs without reordering it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	return s[(len(s)-1)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// trimmedMean is the mean of xs without its largest 1%: on a shared
// two-core VM a single descheduling of hundreds of milliseconds lands in
// whichever span is open, and would otherwise decide that layer's mean.
// Means, not medians, because layer times are summed.
func trimmedMean(xs []float64) float64 {
	s := sortedCopy(xs)
	return mean(s[:len(s)-len(s)/100])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// spread is (max-min)/median of xs: how far apart a run's windows were.
func spread(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 || s[(len(s)-1)/2] == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / s[(len(s)-1)/2]
}

// qerror is max(pred/actual, actual/pred), the paper's accuracy measure.
// The harness keeps its own copy rather than calling metrics.QError: a
// yardstick should not change with the code it measures.
func qerror(pred, actual float64) float64 {
	const eps = 1e-9
	pred, actual = math.Max(pred, eps), math.Max(actual, eps)
	if pred > actual {
		return pred / actual
	}
	return actual / pred
}
