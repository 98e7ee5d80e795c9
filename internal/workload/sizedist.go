// Package workload generates the traffic the paper evaluates on: the
// WebSearch flow-size distribution under Poisson arrivals, incast bursts,
// synthetic Hadoop-style coflows with file-request traffic, and ring
// all-reduce traffic for ML training jobs.
package workload

import (
	"math/rand"
	"sort"

	"prioplus/internal/sim"
)

// SizeDist is an empirical flow-size CDF sampled by inverse transform with
// linear interpolation between knots.
type SizeDist struct {
	sizes []float64 // bytes, ascending
	cdf   []float64 // cumulative probability at each size
}

// NewSizeDist builds a distribution from (bytes, cumulative probability)
// knots. The first knot's probability may exceed 0 (atom at the minimum
// size); the last must be 1.
func NewSizeDist(points [][2]float64) *SizeDist {
	d := &SizeDist{}
	for _, p := range points {
		d.sizes = append(d.sizes, p[0])
		d.cdf = append(d.cdf, p[1])
	}
	if d.cdf[len(d.cdf)-1] != 1 {
		panic("workload: CDF must end at 1")
	}
	return d
}

// WebSearch returns the DCTCP web-search flow-size distribution, the
// standard workload the paper generates traffic from (mean ~1.6 MB, max
// 30 MB, ~50% of flows under 100 KB).
func WebSearch() *SizeDist {
	return NewSizeDist([][2]float64{
		{6e3, 0.00},
		{6e3, 0.15},
		{13e3, 0.20},
		{19e3, 0.30},
		{33e3, 0.40},
		{53e3, 0.53},
		{133e3, 0.60},
		{667e3, 0.70},
		{1467e3, 0.80},
		{3333e3, 0.90},
		{6667e3, 0.97},
		{20e6, 1.00},
	})
}

// Sample draws a flow size in bytes.
func (d *SizeDist) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(d.cdf, u)
	if i == 0 {
		return int64(d.sizes[0])
	}
	if i >= len(d.cdf) {
		i = len(d.cdf) - 1
	}
	lo, hi := d.sizes[i-1], d.sizes[i]
	clo, chi := d.cdf[i-1], d.cdf[i]
	if chi == clo {
		return int64(hi)
	}
	frac := (u - clo) / (chi - clo)
	return int64(lo + frac*(hi-lo))
}

// Mean returns the distribution mean in bytes.
func (d *SizeDist) Mean() float64 {
	mean := 0.0
	prev := 0.0
	for i := range d.sizes {
		p := d.cdf[i] - prev
		prev = d.cdf[i]
		if i == 0 {
			mean += p * d.sizes[i]
		} else {
			mean += p * (d.sizes[i-1] + d.sizes[i]) / 2
		}
	}
	return mean
}

// FlowEvent is one generated flow arrival.
type FlowEvent struct {
	At   sim.Time
	Src  int
	Dst  int
	Size int64
}

// PoissonConfig drives the open-loop flow generator used in the flow
// scheduling scenario: flows arrive Poisson at a rate that loads every
// host's access link to Load.
type PoissonConfig struct {
	Hosts    int     // number of hosts; src/dst drawn uniformly, src != dst
	Load     float64 // target utilization of each host link (0..1)
	LinkBps  float64 // host link speed, bits/s
	Dist     *SizeDist
	Duration sim.Time
	Rng      *rand.Rand
}

// Poisson generates flow arrivals for the configured duration. The
// aggregate arrival rate is hosts * load * linkRate / meanSize, so each
// host's outgoing link carries Load on average.
func Poisson(cfg PoissonConfig) []FlowEvent {
	mean := cfg.Dist.Mean()
	ratePerSec := float64(cfg.Hosts) * cfg.Load * cfg.LinkBps / 8 / mean
	var out []FlowEvent
	t := 0.0
	end := cfg.Duration.Seconds()
	for {
		t += cfg.Rng.ExpFloat64() / ratePerSec
		if t >= end {
			return out
		}
		src := cfg.Rng.Intn(cfg.Hosts)
		dst := cfg.Rng.Intn(cfg.Hosts - 1)
		if dst >= src {
			dst++
		}
		out = append(out, FlowEvent{
			At:   sim.FromSeconds(t),
			Src:  src,
			Dst:  dst,
			Size: cfg.Dist.Sample(cfg.Rng),
		})
	}
}
