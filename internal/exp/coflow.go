package exp

import (
	"sort"
	"strconv"

	"prioplus/internal/netsim"
	"prioplus/internal/obs"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
	"prioplus/internal/workload"
)

// CoflowConfig drives the coflow-scheduling scenario (§6.2, Figs 12a/b,
// 15, 17, 18): Hadoop-style coflows plus file-request incast on a
// non-blocking Clos, coflows grouped into 8 priorities by total size.
type CoflowConfig struct {
	Scheme   Scheme
	load     float64
	Duration sim.Time
	Drain    sim.Time
	nPrios   int
	// Topology dimensions; zero values give the paper's 5-pod, 320-host
	// fabric. Scale down for tests and benches.
	pods, edges, hostsPerEdge, aggs, cores int
	// lossy disables PFC and relies on IRN loss recovery (Fig 17).
	lossy bool
	// NoPriority runs the scheme with a single priority group (the
	// speedup baseline: Swift with default parameters, no scheduling).
	NoPriority bool
	// Options carries the seed and the recorder factory; a run is tagged
	// "<scheme>/load=<load>", "baseline/"-prefixed for the no-priority
	// baseline.
	Options
	// maxInflight, when > 0, arms an in-flight-bytes watchdog on every run:
	// a run whose live packet bytes exceed the ceiling is stopped early and
	// reported with CoflowResult.Watchdog set. This is how fig18's quick
	// scale stays runnable — the "Physical* w/o CC" scheme otherwise
	// materializes tens of GB of packets in PFC-paused queues (every
	// arriving flow blasts its full TX window into a fabric that never
	// drains, and spurious RTOs duplicate what is already queued). The
	// ceiling does not depend on Options.NewRecorder, so figure output is
	// identical whether or not observability flags are set.
	maxInflight int64
}

// DefaultCoflowConfig returns a reduced-scale version of the paper's
// coflow scenario.
func DefaultCoflowConfig(s Scheme, load float64) CoflowConfig {
	return CoflowConfig{
		Scheme:   s,
		load:     load,
		Duration: 30 * sim.Millisecond,
		Drain:    100 * sim.Millisecond,
		Options:  Options{Seed: 1},
		nPrios:   8,
		pods:     2, edges: 4, hostsPerEdge: 4, aggs: 2, cores: 4,
	}
}

// paperScale switches the config to the paper's full 320-host fabric.
func (c CoflowConfig) paperScale() CoflowConfig {
	c.pods, c.edges, c.hostsPerEdge, c.aggs, c.cores = 5, 8, 8, 2, 8
	return c
}

// CoflowResult summarizes one run: per-priority-group mean and P99 CCT.
type CoflowResult struct {
	scheme    string
	GroupMean []sim.Time // indexed by priority (0 = lowest = largest)
	groupP99  []sim.Time
	Mean      sim.Time
	P99       sim.Time
	Completed int
	launched  int
	// watchdog is the trip reason ("inflight_bytes") when the run was
	// stopped early by CoflowConfig.maxInflight, "" when it ran to the end.
	// Stats from a tripped run cover only the coflows that finished before
	// the stop, so they are biased toward the early survivors.
	watchdog string
}

// RunCoflow runs one scheme over the coflow workload, through the memo in
// cfg.Options when there is one: fig12ab's 70 % half, fig15 and fig18's
// first cells run the same configs.
func RunCoflow(cfg CoflowConfig) CoflowResult {
	return memoize(cfg, runCoflow)
}

func runCoflow(cfg CoflowConfig) CoflowResult {
	tag := cfg.Scheme.name + "/load=" + strconv.FormatFloat(cfg.load, 'g', -1, 64)
	if cfg.NoPriority {
		tag = "baseline/" + tag
	}
	o := cfg.Options
	if cfg.maxInflight > 0 {
		// The ceiling rides on the run's recorder, or on a private one.
		o.NewRecorder = func(tag string) *obs.Recorder {
			var rec *obs.Recorder
			if cfg.NewRecorder != nil {
				rec = cfg.NewRecorder(tag)
			}
			if rec == nil {
				rec = obs.NewRecorder()
			}
			if rec.Watchdog == nil {
				rec.Watchdog = &obs.Watchdog{MaxInflightBytes: cfg.maxInflight}
			}
			return rec
		}
	}
	net := schemeFabric(o, tag, cfg.Scheme, cfg.nPrios, paperNoise,
		func(eng *sim.Engine, tc topo.Config) *topo.Network {
			tc.FabricRate = 400 * netsim.Gbps
			tc.Buffer.TotalBytes = 32 << 20 // set directly by the paper in this scenario
			if cfg.lossy {
				tc.Buffer.PFCEnabled = false
			}
			return topo.Clos(eng, cfg.pods, cfg.edges, cfg.hostsPerEdge, cfg.aggs, cfg.cores, tc)
		})
	rng := net.Eng.Rand(cfg.Seed + 13)
	wcfg := workload.DefaultCoflowConfig(len(net.Topo.Hosts), cfg.load, float64(net.Topo.Cfg.HostRate), cfg.Duration, rng)
	coflows := workload.Coflows(wcfg)

	totals := make([]int64, len(coflows))
	for i, cf := range coflows {
		totals[i] = cf.Total
	}
	groups := newSizeGroups(cfg.nPrios, totals)

	type cfState struct {
		remaining int
		arrival   sim.Time
		prio      int
		cct       sim.Time
	}
	states := make([]*cfState, len(coflows))
	res := CoflowResult{scheme: cfg.Scheme.name}
	for i, cf := range coflows {
		// Group assignment is recorded for stats regardless of scheme;
		// the no-priority baseline transmits everything at priority 0.
		group := groups.priorityFor(cf.Total)
		prio := group
		if cfg.NoPriority {
			prio = 0
		}
		st := &cfState{remaining: len(cf.Flows), arrival: cf.Arrival, prio: group}
		states[i] = st
		res.launched++
		for _, f := range cf.Flows {
			net.addFlow(f.Src, f.Dst, f.Size, prio, cf.Arrival, func(sim.Time, sim.Time) {
				st.remaining--
				if st.remaining == 0 {
					st.cct = net.Eng.Now() - st.arrival
				}
			})
		}
	}
	net.Run(cfg.Duration + cfg.Drain)
	if rec := net.Rec; rec != nil && rec.Watchdog != nil {
		res.watchdog = rec.Watchdog.Tripped()
	}

	perGroup := make([][]sim.Time, cfg.nPrios)
	var all []sim.Time
	for _, st := range states {
		if st.remaining > 0 {
			continue
		}
		res.Completed++
		perGroup[st.prio] = append(perGroup[st.prio], st.cct)
		all = append(all, st.cct)
	}
	res.GroupMean = make([]sim.Time, cfg.nPrios)
	res.groupP99 = make([]sim.Time, cfg.nPrios)
	for p, ccts := range perGroup {
		if len(ccts) == 0 {
			continue
		}
		sort.Slice(ccts, func(i, j int) bool { return ccts[i] < ccts[j] })
		var sum sim.Time
		for _, c := range ccts {
			sum += c
		}
		res.GroupMean[p] = sum / sim.Time(len(ccts))
		res.groupP99[p] = ccts[int(0.99*float64(len(ccts)-1))]
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		var sum sim.Time
		for _, c := range all {
			sum += c
		}
		res.Mean = sum / sim.Time(len(all))
		res.P99 = all[int(0.99*float64(len(all)-1))]
	}
	return res
}

// CoflowSpeedups compares schemes against the no-priority Swift baseline,
// reporting mean (or P99, for Fig 15) CCT speedups for the high four
// priority groups, the low four, and overall — the shape of Figs 12a/b.
type CoflowSpeedups struct {
	scheme  string
	high4   float64
	low4    float64
	overall float64
	// watchdog carries the scheme run's trip reason (see CoflowResult).
	watchdog string
}

func speedupOf(base, r CoflowResult, tail bool) CoflowSpeedups {
	pick := func(res CoflowResult, lo, hi int) sim.Time {
		var sum sim.Time
		var n int
		src := res.GroupMean
		if tail {
			src = res.groupP99
		}
		for p := lo; p <= hi; p++ {
			if src[p] > 0 {
				sum += src[p]
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / sim.Time(n)
	}
	np := len(r.GroupMean)
	ratio := func(b, v sim.Time) float64 {
		if v <= 0 || b <= 0 {
			return 0
		}
		return float64(b) / float64(v)
	}
	baseAll, rAll := base.Mean, r.Mean
	if tail {
		baseAll, rAll = base.P99, r.P99
	}
	return CoflowSpeedups{
		scheme:   r.scheme,
		high4:    ratio(pick(base, np/2, np-1), pick(r, np/2, np-1)),
		low4:     ratio(pick(base, 0, np/2-1), pick(r, 0, np/2-1)),
		overall:  ratio(baseAll, rAll),
		watchdog: r.watchdog,
	}
}

// Fig12Coflow runs the coflow comparison at one load, one cell per scheme
// (coflowLoads): baseline Swift (no priorities), Physical+Swift, and
// PrioPlus+Swift. With lossy=true it reproduces Fig 17. extra appends
// further schemes (Fig 18: HPCC, Physical w/o CC).
func Fig12Coflow(base CoflowConfig, tail bool, extra ...Scheme) []CoflowSpeedups {
	return coflowLoads([]CoflowConfig{base}, tail, extra...)[0]
}

// coflowLoads runs Fig12Coflow for each config, all of their cells as one
// fan-out started in schemeStart's order: per config the no-priority
// baseline, then Physical+Swift, PrioPlus+Swift and extra. The configs
// share bases[0]'s Options and differ in load, which every run's tag
// carries.
func coflowLoads(bases []CoflowConfig, tail bool, extra ...Scheme) [][]CoflowSpeedups {
	schemes := append([]Scheme{SwiftPhysical(8), SwiftPhysical(8), PrioPlusSwift()}, extra...)
	n := len(schemes)
	var all []Scheme
	for range bases {
		all = append(all, schemes...)
	}
	res := cells(bases[0].Options, len(all), func(i int, o Options) CoflowResult {
		cfg := bases[i/n]
		cfg.Options = o
		cfg.Scheme = all[i]
		cfg.NoPriority = i%n == 0
		return RunCoflow(cfg)
	}, schemeStart(all)...)
	out := make([][]CoflowSpeedups, len(bases))
	for l := range bases {
		for _, r := range res[l*n+1 : (l+1)*n] {
			out[l] = append(out[l], speedupOf(res[l*n], r, tail))
		}
	}
	return out
}
