package workload

import (
	"math"
	"math/rand"

	"prioplus/internal/sim"
)

// CoflowFlow is one flow within a coflow.
type CoflowFlow struct {
	Src, Dst int
	Size     int64
}

// Coflow is a set of flows that complete together; the metric is coflow
// completion time (CCT), the time from arrival until the last flow ends.
type Coflow struct {
	ID      int
	Arrival sim.Time
	Flows   []CoflowFlow
	Total   int64 // sum of flow sizes, used for size-based grouping
}

// CoflowConfig drives the synthetic Hadoop-style coflow generator. The
// shape follows the published Facebook trace's structure: most coflows are
// narrow (few flows) and small, a heavy tail is wide and large, with
// per-coflow totals spanning ~five orders of magnitude.
type CoflowConfig struct {
	Hosts     int
	Load      float64 // utilization of host links by coflow traffic
	LinkBps   float64
	Duration  sim.Time
	Rng       *rand.Rand
	FileLoad  float64 // additional load from 20-to-1 file-request traffic
	FileFanIn int     // senders per file request (paper: 20)
	FileSize  int64   // total bytes per file request
}

// DefaultCoflowConfig matches the paper's coflow scenario: coflow and
// file-request traffic in a 1:1 load ratio, 20 random senders per request.
func DefaultCoflowConfig(hosts int, load float64, linkBps float64, dur sim.Time, rng *rand.Rand) CoflowConfig {
	return CoflowConfig{
		Hosts:     hosts,
		Load:      load / 2,
		LinkBps:   linkBps,
		Duration:  dur,
		Rng:       rng,
		FileLoad:  load / 2,
		FileFanIn: 20,
		FileSize:  20 << 20,
	}
}

// sampleWidth draws a coflow width: P(w) ~ w^-1.8 over [1, maxW], matching
// the narrow-heavy shape of the Facebook trace.
func sampleWidth(rng *rand.Rand, maxW int) int {
	u := rng.Float64()
	// Inverse transform for a bounded Pareto with alpha=0.8 on [1, maxW].
	alpha := 0.8
	lo, hi := 1.0, float64(maxW)
	x := math.Pow(u*(math.Pow(hi, -alpha)-math.Pow(lo, -alpha))+math.Pow(lo, -alpha), -1/alpha)
	return int(x)
}

// sampleFlowSize draws one flow's bytes: log-uniform over [100 KB, 64 MB],
// giving coflow totals spanning several orders of magnitude.
func sampleFlowSize(rng *rand.Rand) int64 {
	lo, hi := math.Log(100e3), math.Log(64e6)
	return int64(math.Exp(lo + rng.Float64()*(hi-lo)))
}

// meanCoflowBytes estimates the generator's mean total size empirically
// (cached per config call; the generator is cheap).
func meanCoflowBytes(rng *rand.Rand, maxW int) float64 {
	var total float64
	const n = 2000
	for i := 0; i < n; i++ {
		w := sampleWidth(rng, maxW)
		for j := 0; j < w; j++ {
			total += float64(sampleFlowSize(rng))
		}
	}
	return total / n
}

// Coflows generates the coflow arrivals (Poisson) plus file-request
// coflows for the configured duration.
func Coflows(cfg CoflowConfig) []Coflow {
	maxW := min(cfg.Hosts/2, 50)
	mean := meanCoflowBytes(sim.NewRand(99), maxW)
	ratePerSec := float64(cfg.Hosts) * cfg.Load * cfg.LinkBps / 8 / mean
	var out []Coflow
	id := 0
	t := 0.0
	end := cfg.Duration.Seconds()
	for {
		t += cfg.Rng.ExpFloat64() / ratePerSec
		if t >= end {
			break
		}
		w := sampleWidth(cfg.Rng, maxW)
		cf := Coflow{ID: id, Arrival: sim.FromSeconds(t)}
		id++
		perm := cfg.Rng.Perm(cfg.Hosts)
		for j := 0; j < w; j++ {
			src := perm[(2*j)%cfg.Hosts]
			dst := perm[(2*j+1)%cfg.Hosts]
			if src == dst {
				dst = (dst + 1) % cfg.Hosts
			}
			size := sampleFlowSize(cfg.Rng)
			cf.Flows = append(cf.Flows, CoflowFlow{Src: src, Dst: dst, Size: size})
			cf.Total += size
		}
		out = append(out, cf)
	}
	if cfg.FileLoad > 0 {
		out = append(out, fileRequests(cfg, id)...)
	}
	return out
}

// fileRequests generates the paper's file-request traffic: for each
// request, FileFanIn random nodes each send a piece of the file to one
// randomly selected node (incast into distributed-storage readers).
func fileRequests(cfg CoflowConfig, firstID int) []Coflow {
	ratePerSec := float64(cfg.Hosts) * cfg.FileLoad * cfg.LinkBps / 8 / float64(cfg.FileSize)
	var out []Coflow
	id := firstID
	t := 0.0
	end := cfg.Duration.Seconds()
	piece := cfg.FileSize / int64(cfg.FileFanIn)
	for {
		t += cfg.Rng.ExpFloat64() / ratePerSec
		if t >= end {
			return out
		}
		dst := cfg.Rng.Intn(cfg.Hosts)
		cf := Coflow{ID: id, Arrival: sim.FromSeconds(t)}
		id++
		for j := 0; j < cfg.FileFanIn; j++ {
			src := cfg.Rng.Intn(cfg.Hosts - 1)
			if src >= dst {
				src++
			}
			cf.Flows = append(cf.Flows, CoflowFlow{Src: src, Dst: dst, Size: piece})
			cf.Total += piece
		}
		out = append(out, cf)
	}
}
