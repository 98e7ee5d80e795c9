// Package sim is where the fixture's sources are built: allowed.
package sim

import "math/rand"

// NewRand builds a source.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
