// Package stats stubs the error-returning aggregate constructor of
// memsim/internal/stats (matched by package name + function name).
package stats

import "errors"

var errBad = errors.New("bad measurement")

func HarmonicMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	return xs[0], errBad
}

// Mean has no error result, so discarding it is not errdrop's business.
func Mean(xs []float64) float64 { return 0 }
