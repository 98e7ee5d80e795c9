package noise

import (
	"math/rand"

	"prioplus/internal/sim"
)

// Uniform returns noise uniform in [0, width).
type Uniform struct {
	rng   *rand.Rand
	width sim.Time
}

// NewUniform returns a uniform noise model over [0, width).
func NewUniform(rng *rand.Rand, width sim.Time) *Uniform {
	return &Uniform{rng: rng, width: width}
}

// Sample implements Model.
func (u *Uniform) Sample() sim.Time {
	if u.width <= 0 {
		return 0
	}
	return sim.Time(u.rng.Int63n(int64(u.width)))
}

// None is a zero-noise model.
var None = Func(func() sim.Time { return 0 })
