package exp

import (
	"math/rand"
	"strconv"

	"prioplus/internal/harness"
	"prioplus/internal/sched"
	"prioplus/internal/sim"
	"prioplus/internal/stats"
	"prioplus/internal/workload"
)

// FlowSchedConfig drives the generic flow-scheduling scenario (§6.2,
// Figs 11, 14, 16): WebSearch traffic on a fat-tree, flows grouped into
// priorities by size.
type FlowSchedConfig struct {
	Scheme   Scheme
	K        int     // fat-tree arity (paper: 6)
	NPrios   int     // virtual priorities
	Load     float64 // per-host-link load (paper: 0.7)
	Duration sim.Time
	Drain    sim.Time // extra time for in-flight flows to finish
	// AckPrioData is the PrioPlus* ablation: ACKs share the data queue.
	AckPrioData bool
	// PerPrioWorkload is the Fig 14 mode: instead of size-based grouping,
	// every flow draws a uniform-random priority so each priority level
	// carries a full WebSearch workload.
	PerPrioWorkload bool
	// NoiseScale scales the injected delay-measurement noise (1 = paper,
	// 0 = none).
	NoiseScale float64
	// Options carries the seed, the fault plan and the recorder factory; a
	// run is tagged "<scheme>/np=<n>", plus "/ackdata" for PrioPlus*.
	Options
}

// runTag identifies one flow-scheduling run within a figure's sweep.
func (cfg FlowSchedConfig) runTag() string {
	tag := cfg.Scheme.Name + "/np=" + strconv.Itoa(cfg.NPrios)
	if cfg.AckPrioData {
		tag += "/ackdata"
	}
	return tag
}

// DefaultFlowSchedConfig returns the paper's configuration at a reduced
// duration suitable for interactive runs.
func DefaultFlowSchedConfig(s Scheme, nprios int) FlowSchedConfig {
	return FlowSchedConfig{
		Scheme:     s,
		K:          6,
		NPrios:     nprios,
		Load:       0.7,
		Duration:   20 * sim.Millisecond,
		Drain:      30 * sim.Millisecond,
		NoiseScale: 1,
		Options:    Options{Seed: 1},
	}
}

// FlowSchedResult is the outcome of one flow-scheduling run.
type FlowSchedResult struct {
	Scheme     string
	NPrios     int
	Flows      *stats.Collector
	Launched   int
	Unfinished int
	Pauses     int64 // total PFC pause transitions across the fabric
	Drops      int64
}

// RunFlowSched runs one scheme at one priority count.
func RunFlowSched(cfg FlowSchedConfig) FlowSchedResult {
	var opts []harness.Option
	if cfg.AckPrioData {
		opts = append(opts, harness.WithAckPrioData())
	}
	net := schemeFabric(cfg.Options, cfg.runTag(), cfg.Scheme, cfg.NPrios,
		longTail{off: 7, scale: cfg.NoiseScale}, fatTree(cfg.K), opts...)

	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	dist := workload.WebSearch()
	events := workload.Poisson(workload.PoissonConfig{
		Hosts:    len(net.Topo.Hosts),
		Load:     cfg.Load,
		LinkBps:  float64(net.Topo.Cfg.HostRate),
		Dist:     dist,
		Duration: cfg.Duration,
		Rng:      rng,
	})

	// Size-based priority assignment from a workload sample (the paper's
	// stand-in for flow-scheduling algorithms). Byte-balanced boundaries
	// put the many small (latency-sensitive) flows into the top no-probe
	// priorities (§4.4) and give each priority a similar byte load.
	sampleRng := rand.New(rand.NewSource(cfg.Seed + 29))
	sizeSample := make([]int64, 20000)
	for i := range sizeSample {
		sizeSample[i] = dist.Sample(sampleRng)
	}
	groups := sched.NewByteGroups(cfg.NPrios, sizeSample)

	res := FlowSchedResult{Scheme: cfg.Scheme.Name, NPrios: cfg.NPrios, Flows: &stats.Collector{}}
	prioRng := rand.New(rand.NewSource(cfg.Seed + 31))
	for _, ev := range events {
		prio := groups.PriorityFor(ev.Size)
		if cfg.PerPrioWorkload {
			prio = prioRng.Intn(cfg.NPrios)
		}
		res.Launched++
		net.addFlow(ev.Src, ev.Dst, ev.Size, prio, ev.At, func(fct, ideal sim.Time) {
			res.Flows.Add(stats.FlowRecord{Size: ev.Size, FCT: fct, Ideal: ideal, Prio: prio})
		})
	}
	net.Run(cfg.Duration + cfg.Drain)
	res.Unfinished = res.Launched - res.Flows.Count()
	for _, sw := range net.Topo.Switches {
		res.Pauses += sw.PausesSent()
		res.Drops += sw.Drops()
	}
	return res
}

// Fig11Row is one (scheme, nprios) cell of Fig 11's sweep.
type Fig11Row struct {
	Scheme   string
	NPrios   int
	AvgAll   float64 // mean slowdown, all flows
	P99All   float64
	AvgSmall float64
	P99Small float64
	AvgMid   float64
	P99Mid   float64
	AvgLarge float64
	P99Large float64
}

func rowFrom(r FlowSchedResult) Fig11Row {
	c := r.Flows
	return Fig11Row{
		Scheme:   r.Scheme,
		NPrios:   r.NPrios,
		AvgAll:   c.MeanSlowdown(),
		P99All:   c.PercentileSlowdown(0.99),
		AvgSmall: c.ByClass(stats.Small).MeanSlowdown(),
		P99Small: c.ByClass(stats.Small).PercentileSlowdown(0.99),
		AvgMid:   c.ByClass(stats.Middle).MeanSlowdown(),
		P99Mid:   c.ByClass(stats.Middle).PercentileSlowdown(0.99),
		AvgLarge: c.ByClass(stats.Large).MeanSlowdown(),
		P99Large: c.ByClass(stats.Large).PercentileSlowdown(0.99),
	}
}

// Fig11 sweeps priority counts for the schemes of Fig 11a-d: Physical
// (max 8 queues), Physical*, and PrioPlus, all with Swift.
func Fig11(prioCounts []int, base FlowSchedConfig) []Fig11Row {
	var rows []Fig11Row
	for _, np := range prioCounts {
		for _, s := range []Scheme{SwiftPhysical(8), SwiftPhysicalIdeal(), PrioPlusSwift()} {
			cfg := base
			cfg.Scheme = s
			cfg.NPrios = np
			rows = append(rows, rowFrom(RunFlowSched(cfg)))
		}
	}
	return rows
}

// Fig16 compares PrioPlus, PrioPlus* (ACKs in the data queue), and HPCC in
// the flow-scheduling scenario (Appendix A.3).
func Fig16(nprios int, base FlowSchedConfig) []Fig11Row {
	var rows []Fig11Row
	for _, v := range []struct {
		s       Scheme
		ackData bool
		name    string
	}{
		{PrioPlusSwift(), false, "PrioPlus+Swift"},
		{PrioPlusSwift(), true, "PrioPlus*+Swift"},
		{HPCCPhysical(8), false, "Physical+HPCC"},
	} {
		cfg := base
		cfg.Scheme = v.s
		cfg.NPrios = nprios
		cfg.AckPrioData = v.ackData
		r := RunFlowSched(cfg)
		row := rowFrom(r)
		row.Scheme = v.name
		rows = append(rows, row)
	}
	return rows
}

// Fig14Row is one (priority band, size class) cell of Fig 14: FCT
// normalized against Physical*+Swift.
type Fig14Row struct {
	Scheme string
	Band   string // "high" (11), "middle" (6-10), "low" (0-5)
	Class  string
	Norm   float64 // mean FCT / Physical* mean FCT
}

// Fig14 runs the per-priority workload mode with 12 priorities and
// normalizes each scheme's per-band, per-class FCT by Physical*+Swift.
func Fig14(base FlowSchedConfig, schemes []Scheme) []Fig14Row {
	const nprios = 12
	run := func(s Scheme, ackData bool) FlowSchedResult {
		cfg := base
		cfg.Scheme = s
		cfg.NPrios = nprios
		cfg.PerPrioWorkload = true
		cfg.AckPrioData = ackData
		return RunFlowSched(cfg)
	}
	ref := run(SwiftPhysicalIdeal(), false)
	bands := []struct {
		name   string
		lo, hi int
	}{{"high", 11, 11}, {"middle", 6, 10}, {"low", 0, 5}}
	classes := []stats.SizeClass{stats.Small, stats.Middle, stats.Large}
	var rows []Fig14Row
	for _, s := range schemes {
		r := run(s, false)
		for _, b := range bands {
			for _, cl := range classes {
				sel := func(c *stats.Collector) *stats.Collector {
					return c.Filter(func(f stats.FlowRecord) bool {
						return f.Prio >= b.lo && f.Prio <= b.hi && stats.ClassOf(f.Size) == cl
					})
				}
				den := sel(ref.Flows).MeanFCT()
				num := sel(r.Flows).MeanFCT()
				norm := 0.0
				if den > 0 {
					norm = float64(num) / float64(den)
				}
				rows = append(rows, Fig14Row{Scheme: s.Name, Band: b.name, Class: cl.String(), Norm: norm})
			}
		}
	}
	return rows
}
