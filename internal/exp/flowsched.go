package exp

import (
	"slices"
	"strconv"

	"prioplus/internal/harness"
	"prioplus/internal/sim"
	"prioplus/internal/stats"
	"prioplus/internal/workload"
)

// flowSchedConfig drives the generic flow-scheduling scenario (§6.2,
// Figs 11, 14, 16): WebSearch traffic on a fat-tree, flows grouped into
// priorities by size.
type flowSchedConfig struct {
	scheme   Scheme
	k        int     // fat-tree arity (paper: 6)
	nPrios   int     // virtual priorities
	load     float64 // per-host-link load (paper: 0.7)
	duration sim.Time
	drain    sim.Time // extra time for in-flight flows to finish
	// ackPrioData is the PrioPlus* ablation: ACKs share the data queue.
	ackPrioData bool
	// perPrioWorkload is the Fig 14 mode: instead of size-based grouping,
	// every flow draws a uniform-random priority so each priority level
	// carries a full WebSearch workload.
	perPrioWorkload bool
	// noiseScale scales the injected delay-measurement noise (1 = paper,
	// 0 = none).
	noiseScale float64
	// Options carries the seed and the recorder factory; a run is tagged
	// "<scheme>/np=<n>", plus "/ackdata" for PrioPlus*.
	Options
}

// runTag identifies one flow-scheduling run within a figure's sweep.
func (cfg flowSchedConfig) runTag() string {
	tag := cfg.scheme.name + "/np=" + strconv.Itoa(cfg.nPrios)
	if cfg.ackPrioData {
		tag += "/ackdata"
	}
	return tag
}

// defaultFlowSchedConfig returns the paper's configuration at a reduced
// duration suitable for interactive runs.
func defaultFlowSchedConfig(s Scheme, nprios int) flowSchedConfig {
	return flowSchedConfig{
		scheme:     s,
		k:          6,
		nPrios:     nprios,
		load:       0.7,
		duration:   20 * sim.Millisecond,
		drain:      30 * sim.Millisecond,
		noiseScale: 1,
		Options:    Options{Seed: 1},
	}
}

// flowSchedResult is the outcome of one flow-scheduling run.
type flowSchedResult struct {
	scheme     string
	nPrios     int
	flows      *stats.Collector
	launched   int
	unfinished int
	pauses     int64 // total PFC pause transitions across the fabric
	drops      int64
}

// runFlowSched runs one scheme at one priority count.
func runFlowSched(cfg flowSchedConfig) flowSchedResult {
	var opts []harness.Option
	if cfg.ackPrioData {
		opts = append(opts, harness.WithAckPrioData())
	}
	net := schemeFabric(cfg.Options, cfg.runTag(), cfg.scheme, cfg.nPrios,
		longTail{off: 7, scale: cfg.noiseScale}, fatTree(cfg.k), opts...)

	rng := net.Eng.Rand(cfg.Seed + 13)
	dist := workload.WebSearch()
	events := workload.Poisson(workload.PoissonConfig{
		Hosts:    len(net.Topo.Hosts),
		Load:     cfg.load,
		LinkBps:  float64(net.Topo.Cfg.HostRate),
		Dist:     dist,
		Duration: cfg.duration,
		Rng:      rng,
	})

	// Size-based priority assignment from a workload sample (the paper's
	// stand-in for flow-scheduling algorithms). Byte-balanced boundaries
	// put the many small (latency-sensitive) flows into the top no-probe
	// priorities (§4.4) and give each priority a similar byte load.
	sampleRng := net.Eng.Rand(cfg.Seed + 29)
	sizeSample := make([]int64, 20000)
	for i := range sizeSample {
		sizeSample[i] = dist.Sample(sampleRng)
	}
	groups := newByteGroups(cfg.nPrios, sizeSample)

	res := flowSchedResult{scheme: cfg.scheme.name, nPrios: cfg.nPrios, flows: &stats.Collector{}}
	prioRng := net.Eng.Rand(cfg.Seed + 31)
	for _, ev := range events {
		prio := groups.priorityFor(ev.Size)
		if cfg.perPrioWorkload {
			prio = prioRng.Intn(cfg.nPrios)
		}
		res.launched++
		net.addFlow(ev.Src, ev.Dst, ev.Size, prio, ev.At, func(fct, ideal sim.Time) {
			res.flows.Add(stats.FlowRecord{Size: ev.Size, FCT: fct, Ideal: ideal, Prio: prio})
		})
	}
	net.Run(cfg.duration + cfg.drain)
	res.unfinished = res.launched - res.flows.Count()
	for _, sw := range net.Topo.Switches {
		res.pauses += sw.PausesSent()
		res.drops += sw.Drops()
	}
	return res
}

// fig11Row is one (scheme, nprios) cell of Fig 11's sweep.
type fig11Row struct {
	scheme   string
	nPrios   int
	avgAll   float64 // mean slowdown, all flows
	p99All   float64
	avgSmall float64
	p99Small float64
	avgMid   float64
	p99Mid   float64
	avgLarge float64
	p99Large float64
}

func rowFrom(r flowSchedResult) fig11Row {
	c := r.flows
	return fig11Row{
		scheme:   r.scheme,
		nPrios:   r.nPrios,
		avgAll:   c.MeanSlowdown(),
		p99All:   c.PercentileSlowdown(0.99),
		avgSmall: c.ByClass(stats.Small).MeanSlowdown(),
		p99Small: c.ByClass(stats.Small).PercentileSlowdown(0.99),
		avgMid:   c.ByClass(stats.Middle).MeanSlowdown(),
		p99Mid:   c.ByClass(stats.Middle).PercentileSlowdown(0.99),
		avgLarge: c.ByClass(stats.Large).MeanSlowdown(),
		p99Large: c.ByClass(stats.Large).PercentileSlowdown(0.99),
	}
}

// fig11 sweeps priority counts for the schemes of Fig 11a-d: Physical
// (max 8 queues), Physical*, and PrioPlus, all with Swift. Every (count,
// scheme) cell is a private engine, so a hooks-off sweep fans them out
// (cells).
func fig11(prioCounts []int, base flowSchedConfig) []fig11Row {
	schemes := []Scheme{SwiftPhysical(8), swiftPhysicalIdeal(), PrioPlusSwift()}
	return cells(base.Options, len(prioCounts)*len(schemes), func(i int, o Options) fig11Row {
		cfg := base
		cfg.Options = o
		cfg.scheme = schemes[i%len(schemes)]
		cfg.nPrios = prioCounts[i/len(schemes)]
		return schedRow(cfg)
	})
}

// schedRow is one flow-scheduling cell's row, through the caller's memo:
// fig11's PrioPlus+Swift row at 8 priorities is fig16's PrioPlus+Swift row.
func schedRow(cfg flowSchedConfig) fig11Row {
	return memoize(cfg, schedCell)
}

// schedCell is the memoized flow-scheduling cell: one run's row.
func schedCell(cfg flowSchedConfig) fig11Row { return rowFrom(runFlowSched(cfg)) }

// fig16 compares PrioPlus, PrioPlus* (ACKs in the data queue), and HPCC in
// the flow-scheduling scenario (Appendix A.3), one cell per scheme, HPCC's
// started first (schemeStart).
func fig16(nprios int, base flowSchedConfig) []fig11Row {
	variants := []struct {
		s       Scheme
		ackData bool
		name    string
	}{
		{PrioPlusSwift(), false, "PrioPlus+Swift"},
		{PrioPlusSwift(), true, "PrioPlus*+Swift"},
		{hpccPhysical(8), false, "Physical+HPCC"},
	}
	schemes := make([]Scheme, len(variants))
	for i, v := range variants {
		schemes[i] = v.s
	}
	return cells(base.Options, len(variants), func(i int, o Options) fig11Row {
		v := variants[i]
		cfg := base
		cfg.Options = o
		cfg.scheme = v.s
		cfg.nPrios = nprios
		cfg.ackPrioData = v.ackData
		row := schedRow(cfg)
		row.scheme = v.name
		return row
	}, schemeStart(schemes)...)
}

// fig14Row is one (priority band, size class) cell of Fig 14: FCT
// normalized against Physical*+Swift.
type fig14Row struct {
	scheme string
	band   string // "high" (11), "middle" (6-10), "low" (0-5)
	class  string
	norm   float64 // mean FCT / Physical* mean FCT
}

// fig14 runs the per-priority workload mode with 12 priorities, one cell
// per scheme, and normalizes each scheme's per-band, per-class FCT by the
// Physical*+Swift cell, which schemes must contain. Each cell returns its
// mean FCT per (band, class), so no cell's flow records outlive it.
func fig14(base flowSchedConfig, schemes []Scheme) []fig14Row {
	const nprios = 12
	bands := []struct {
		name   string
		lo, hi int
	}{{"high", 11, 11}, {"middle", 6, 10}, {"low", 0, 5}}
	classes := []stats.SizeClass{stats.Small, stats.Middle, stats.Large}
	ref := slices.IndexFunc(schemes, func(s Scheme) bool { return s.name == swiftPhysicalIdeal().name })
	means := cells(base.Options, len(schemes), func(i int, o Options) []sim.Time {
		cfg := base
		cfg.Options = o
		cfg.scheme = schemes[i]
		cfg.nPrios = nprios
		cfg.perPrioWorkload = true
		flows := runFlowSched(cfg).flows
		var m []sim.Time
		for _, b := range bands {
			for _, cl := range classes {
				m = append(m, flows.Filter(func(f stats.FlowRecord) bool {
					return f.Prio >= b.lo && f.Prio <= b.hi && stats.ClassOf(f.Size) == cl
				}).MeanFCT())
			}
		}
		return m
	}, schemeStart(schemes)...)
	var rows []fig14Row
	for j, s := range schemes {
		for k, num := range means[j] {
			norm := 0.0
			if den := means[ref][k]; den > 0 {
				norm = float64(num) / float64(den)
			}
			rows = append(rows, fig14Row{scheme: s.name, band: bands[k/len(classes)].name, class: classes[k%len(classes)].String(), norm: norm})
		}
	}
	return rows
}
