// Package noise models delay-measurement noise. The paper measures the
// noise of NIC hardware timestamping in its testbed (Fig 7): a long-tail
// additive distribution with mean ~0.3 us, 99.85th percentile ~0.8 us, and
// under 0.1% probability of exceeding 1 us. PrioPlus sizes its channel
// width from a high percentile of this distribution (§4.3.2).
package noise

import (
	"math"
	"math/rand"
	"sort"

	"prioplus/internal/sim"
)

// Model is a source of additive delay-noise samples. Implementations are
// not safe for concurrent use; the simulator is single-threaded.
type Model interface {
	Sample() sim.Time
}

// Func adapts a function to the Model interface.
type Func func() sim.Time

// Sample implements Model.
func (f Func) Sample() sim.Time { return f() }

// LongTail reproduces the paper's measured hardware-timestamp noise,
// optionally scaled (Fig 10d scales it 1x-8x). The body is a folded
// normal (mean 0.25 us, sigma 0.18 us) and a rare (0.05%) tail uniform in
// [1 us, 4 us], giving mean ~0.26 us, P99.85 ~0.8 us, P(>1 us) < 0.1%.
type LongTail struct {
	rng   *rand.Rand
	scale float64
}

// NewLongTail returns a long-tail noise model with the given scale factor
// (1 = the paper's measured distribution).
func NewLongTail(rng *rand.Rand, scale float64) *LongTail {
	return &LongTail{rng: rng, scale: scale}
}

// Sample implements Model.
func (l *LongTail) Sample() sim.Time {
	var us float64
	if l.rng.Float64() < 0.0005 {
		us = 1 + 3*l.rng.Float64()
	} else {
		us = math.Abs(0.25 + 0.18*l.rng.NormFloat64())
	}
	return sim.Time(us * l.scale * float64(sim.Microsecond))
}

// Stats summarizes a noise distribution empirically.
type Stats struct {
	Mean    sim.Time
	P50     sim.Time
	P99     sim.Time
	P9985   sim.Time
	FracGt1 float64 // fraction of samples above 1 us
}

// Measure draws n samples and summarizes them, reproducing the paper's
// noise characterization methodology (§4.3.2): in a real data center the
// same numbers come from idle-network ping-pong measurements.
func Measure(m Model, n int) Stats {
	samples := make([]sim.Time, n)
	var sum, gt1 int64
	for i := range samples {
		s := m.Sample()
		samples[i] = s
		sum += int64(s)
		if s > sim.Microsecond {
			gt1++
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pct := func(p float64) sim.Time {
		idx := int(p * float64(n-1))
		return samples[idx]
	}
	return Stats{
		Mean:    sim.Time(sum / int64(n)),
		P50:     pct(0.50),
		P99:     pct(0.99),
		P9985:   pct(0.9985),
		FracGt1: float64(gt1) / float64(n),
	}
}

// CDF returns (value, cumulative probability) points of the empirical
// distribution of n samples, for reproducing Fig 7.
func CDF(m Model, n, points int) [][2]float64 {
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = m.Sample().Micros()
	}
	sort.Float64s(samples)
	out := make([][2]float64, 0, points)
	for i := 0; i < points; i++ {
		q := float64(i) / float64(points-1)
		idx := int(q * float64(n-1))
		out = append(out, [2]float64{samples[idx], q})
	}
	return out
}
