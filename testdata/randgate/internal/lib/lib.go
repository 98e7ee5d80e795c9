// Package lib is the rand gate's fixture: the uses it flags, and the uses
// it allows.
package lib

import (
	"math/rand"
	mrand "math/rand/v2"
)

// Source builds a math/rand source outside sim: flagged twice.
func Source(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Global draws from math/rand's global source: flagged.
func Global() float64 { return rand.Float64() }

// Aliased builds a source under an import alias: flagged twice.
func Aliased() float64 { return mrand.New(mrand.NewPCG(1, 2)).Float64() }

// Draw only names the Rand type and draws from a generator it is handed:
// allowed.
func Draw(r *rand.Rand) float64 { return r.Float64() }

// Shadowed draws from a value named rand, not the package: allowed.
func Shadowed() int {
	rand := struct{ Intn func(int) int }{func(int) int { return 4 }}
	return rand.Intn(6)
}
