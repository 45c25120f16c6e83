package stats

import (
	"fmt"
	"math"
)

// MAE returns the mean absolute error between equal-length vectors.
func MAE(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: MAE length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, nil
	}
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / float64(len(a)), nil
}
