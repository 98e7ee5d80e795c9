package exp

import (
	"prioplus/internal/sim"
	"prioplus/internal/topo"
	"prioplus/internal/workload"
)

// MLConfig drives the model-training scenario (§6.2, Fig 12c): eight
// data-parallel jobs (four ResNet, four VGG) on a 2:1-oversubscribed
// spine-leaf fabric, each iterating compute + ring all-reduce. Assigning a
// distinct priority to each model's traffic interleaves communication.
type MLConfig struct {
	Scheme   Scheme
	Duration sim.Time
	// NoPriority is the speedup baseline: all jobs share one priority.
	NoPriority bool
	// gradScale divides gradient sizes (and compute time) to shrink the
	// simulation; relative speedups are preserved because both phases
	// scale together.
	gradScale int
	// Options carries the seed and the fault plan. The run is untagged, so
	// a recorder factory is not consulted.
	Options
}

// DefaultMLConfig returns a 1/8-scale version of the paper's scenario.
func DefaultMLConfig(s Scheme) MLConfig {
	return MLConfig{Scheme: s, Duration: 120 * sim.Millisecond, gradScale: 8, Options: Options{Seed: 1}}
}

// MLResult reports iterations completed per model.
type MLResult struct {
	scheme     string
	Iterations map[string]int
	ResNetIter int
	VGGIter    int
}

// RunML runs the training scenario: 24 hosts on 2 leaves with 6 spines;
// model i trains on hosts {i, i+8, i+16} so every ring crosses the
// oversubscribed leaf uplinks.
func RunML(cfg MLConfig) MLResult {
	const nprios = 8
	if cfg.gradScale <= 0 {
		cfg.gradScale = 1
	}
	net := schemeFabric(cfg.Options, "", cfg.Scheme, nprios, paperNoise,
		func(eng *sim.Engine, tc topo.Config) *topo.Network {
			tc.Buffer.TotalBytes = 32 << 20
			return topo.SpineLeaf(eng, 2, 6, 12, tc)
		})
	eng := net.Eng

	models := make([]workload.Model, 0, 8)
	for i := 0; i < 4; i++ {
		models = append(models, workload.ResNet("resnet", []int{i, i + 8, i + 16}))
	}
	for i := 4; i < 8; i++ {
		models = append(models, workload.VGG("vgg", []int{i, i + 8, i + 16}))
	}
	res := MLResult{scheme: cfg.Scheme.name, Iterations: map[string]int{}}

	// ResNet jobs get the four higher priorities, VGG the four lower
	// (§6.2). The baseline collapses everything to one priority.
	prioOf := func(i int) int {
		if cfg.NoPriority {
			return 0
		}
		if i < 4 {
			return 4 + i // ResNet: 4..7
		}
		return i - 4 // VGG: 0..3
	}

	for mi, m := range models {
		m.GradBytes /= int64(cfg.gradScale)
		m.Compute /= sim.Time(cfg.gradScale)
		prio := prioOf(mi)
		steps := m.RingAllReduce()
		var startIteration func()
		runStep := func(si int, next func()) {
			remaining := len(steps[si].Flows)
			for _, f := range steps[si].Flows {
				net.addFlow(f.Src, f.Dst, f.Size, prio, eng.Now(), func(sim.Time, sim.Time) {
					remaining--
					if remaining == 0 {
						next()
					}
				})
			}
		}
		var allReduce func(si int)
		allReduce = func(si int) {
			if si == len(steps) {
				res.Iterations[m.Name+string(rune('0'+mi))]++
				if mi < 4 {
					res.ResNetIter++
				} else {
					res.VGGIter++
				}
				startIteration()
				return
			}
			runStep(si, func() { allReduce(si + 1) })
		}
		startIteration = func() {
			eng.After(m.Compute, func() { allReduce(0) })
		}
		startIteration()
	}
	net.Run(cfg.Duration)
	return res
}

// mlSpeedups compares schemes against the no-priority Swift baseline,
// reporting per-model-type and overall training-speed ratios (Fig 12c).
type mlSpeedups struct {
	scheme  string
	resNet  float64
	vgg     float64
	overall float64
}

// fig12ML runs the comparison, one cell per run: Physical+Swift and
// PrioPlus+Swift against Swift without priorities (cell 0).
func fig12ML(base MLConfig) []mlSpeedups {
	schemes := []Scheme{SwiftPhysical(8), SwiftPhysical(8), PrioPlusSwift()}
	rs := cells(base.Options, len(schemes), func(i int, o Options) MLResult {
		cfg := base
		cfg.Options = o
		cfg.Scheme = schemes[i]
		cfg.NoPriority = i == 0
		return RunML(cfg)
	}, schemeStart(schemes)...)
	ratio := func(x, y int) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	b := rs[0]
	var out []mlSpeedups
	for _, r := range rs[1:] {
		out = append(out, mlSpeedups{
			scheme:  r.scheme,
			resNet:  ratio(r.ResNetIter, b.ResNetIter),
			vgg:     ratio(r.VGGIter, b.VGGIter),
			overall: ratio(r.ResNetIter+r.VGGIter, b.ResNetIter+b.VGGIter),
		})
	}
	return out
}
