// Package stats provides the aggregate statistics used throughout the
// paper's evaluation: harmonic and arithmetic means, speedups, and the
// stall-fraction computations of Figure 1.
package stats

import (
	"fmt"
	"math"
)

// HarmonicMean returns the harmonic mean of xs, the correct aggregate
// for rates such as IPC (the paper aggregates SPEC IPCs this way). It
// returns 0 for an empty slice and an error on non-positive or NaN
// values, which indicate a broken measurement.
func HarmonicMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("stats: harmonic mean of non-positive value %v", x)
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum, nil
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Speedup returns the relative improvement of next over base as a
// ratio (1.43 = 43% faster).
func Speedup(base, next float64) float64 {
	if base == 0 {
		return 0
	}
	return next / base
}

// LostFraction returns the fraction of performance lost relative to an
// upper bound: (upper - actual) / upper. Figure 1 uses it for both the
// perfect-memory and perfect-L2 comparisons.
func LostFraction(actual, upper float64) float64 {
	if upper == 0 {
		return 0
	}
	f := (upper - actual) / upper
	if f < 0 {
		return 0
	}
	return f
}

// Pct formats a fraction as a percentage string ("43.0%"). NaN — the
// marker a degraded experiment batch leaves in cells whose run failed —
// renders as FAILED so a partial artifact is legible at a glance.
func Pct(f float64) string {
	if math.IsNaN(f) {
		return "FAILED"
	}
	return fmt.Sprintf("%.1f%%", 100*f)
}
