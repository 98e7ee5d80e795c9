package stats

import (
	"math"

	"prioplus/internal/sim"
)

// Speedup returns how much faster this collector's mean FCT is than the
// baseline's: baseline/this (>1 means faster).
func Speedup(baseline, this sim.Time) float64 {
	if this <= 0 {
		return math.NaN()
	}
	return float64(baseline) / float64(this)
}
