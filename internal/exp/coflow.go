package exp

import (
	"math/rand"
	"sort"

	"prioplus/internal/netsim"
	"prioplus/internal/obs"
	"prioplus/internal/sched"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
	"prioplus/internal/workload"
)

// CoflowConfig drives the coflow-scheduling scenario (§6.2, Figs 12a/b,
// 15, 17, 18): Hadoop-style coflows plus file-request incast on a
// non-blocking Clos, coflows grouped into 8 priorities by total size.
type CoflowConfig struct {
	Scheme   Scheme
	Load     float64
	Duration sim.Time
	Drain    sim.Time
	NPrios   int
	// Topology dimensions; zero values give the paper's 5-pod, 320-host
	// fabric. Scale down for tests and benches.
	Pods, Edges, HostsPerEdge, Aggs, Cores int
	// Lossy disables PFC and relies on IRN loss recovery (Fig 17).
	Lossy bool
	// NoPriority runs the scheme with a single priority group (the
	// speedup baseline: Swift with default parameters, no scheduling).
	NoPriority bool
	// Trace, when non-nil, replaces the synthetic workload with explicit
	// coflows (e.g. parsed from the public Facebook trace format with
	// workload.ParseCoflowTrace).
	Trace []workload.Coflow
	// Options carries the seed, the fault plan and the recorder factory; a
	// run is tagged with its scheme name, "baseline/"-prefixed for the
	// no-priority baseline.
	Options
	// MaxInflight, when > 0, arms an in-flight-bytes watchdog on every run:
	// a run whose live packet bytes exceed the ceiling is stopped early and
	// reported with CoflowResult.Watchdog set. This is how fig18's quick
	// scale stays runnable — the "Physical* w/o CC" scheme otherwise
	// materializes tens of GB of packets in PFC-paused queues (every
	// arriving flow blasts its full TX window into a fabric that never
	// drains, and spurious RTOs duplicate what is already queued). The
	// ceiling does not depend on Options.NewRecorder, so figure output is
	// identical whether or not observability flags are set.
	MaxInflight int64
}

// DefaultCoflowConfig returns a reduced-scale version of the paper's
// coflow scenario.
func DefaultCoflowConfig(s Scheme, load float64) CoflowConfig {
	return CoflowConfig{
		Scheme:   s,
		Load:     load,
		Duration: 30 * sim.Millisecond,
		Drain:    100 * sim.Millisecond,
		Options:  Options{Seed: 1},
		NPrios:   8,
		Pods:     2, Edges: 4, HostsPerEdge: 4, Aggs: 2, Cores: 4,
	}
}

// PaperScale switches the config to the paper's full 320-host fabric.
func (c CoflowConfig) PaperScale() CoflowConfig {
	c.Pods, c.Edges, c.HostsPerEdge, c.Aggs, c.Cores = 5, 8, 8, 2, 8
	return c
}

// CoflowResult summarizes one run: per-priority-group mean and P99 CCT.
type CoflowResult struct {
	Scheme    string
	GroupMean []sim.Time // indexed by priority (0 = lowest = largest)
	GroupP99  []sim.Time
	Mean      sim.Time
	P99       sim.Time
	Completed int
	Launched  int
	// Watchdog is the trip reason ("inflight_bytes") when the run was
	// stopped early by CoflowConfig.MaxInflight, "" when it ran to the end.
	// Stats from a tripped run cover only the coflows that finished before
	// the stop, so they are biased toward the early survivors.
	Watchdog string
}

// RunCoflow runs one scheme over the coflow workload.
func RunCoflow(cfg CoflowConfig) CoflowResult {
	tag := cfg.Scheme.Name
	if cfg.NoPriority {
		tag = "baseline/" + tag
	}
	o := cfg.Options
	if cfg.MaxInflight > 0 {
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
				rec.Watchdog = &obs.Watchdog{MaxInflightBytes: cfg.MaxInflight}
			}
			return rec
		}
	}
	net := schemeFabric(o, tag, cfg.Scheme, cfg.NPrios, paperNoise,
		func(eng *sim.Engine, tc topo.Config) *topo.Network {
			tc.FabricRate = 400 * netsim.Gbps
			tc.Buffer.TotalBytes = 32 << 20 // set directly by the paper in this scenario
			if cfg.Lossy {
				tc.Buffer.PFCEnabled = false
			}
			return topo.Clos(eng, cfg.Pods, cfg.Edges, cfg.HostsPerEdge, cfg.Aggs, cfg.Cores, tc)
		})
	coflows := cfg.Trace
	if coflows == nil {
		rng := rand.New(rand.NewSource(cfg.Seed + 13))
		wcfg := workload.DefaultCoflowConfig(len(net.Topo.Hosts), cfg.Load, float64(net.Topo.Cfg.HostRate), cfg.Duration, rng)
		coflows = workload.Coflows(wcfg)
	}

	totals := make([]int64, len(coflows))
	for i, cf := range coflows {
		totals[i] = cf.Total
	}
	groups := sched.NewSizeGroups(cfg.NPrios, totals)

	type cfState struct {
		remaining int
		arrival   sim.Time
		prio      int
		cct       sim.Time
	}
	states := make([]*cfState, len(coflows))
	res := CoflowResult{Scheme: cfg.Scheme.Name}
	for i, cf := range coflows {
		// Group assignment is recorded for stats regardless of scheme;
		// the no-priority baseline transmits everything at priority 0.
		group := groups.PriorityFor(cf.Total)
		prio := group
		if cfg.NoPriority {
			prio = 0
		}
		st := &cfState{remaining: len(cf.Flows), arrival: cf.Arrival, prio: group}
		states[i] = st
		res.Launched++
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
		res.Watchdog = rec.Watchdog.Tripped()
	}

	perGroup := make([][]sim.Time, cfg.NPrios)
	var all []sim.Time
	for _, st := range states {
		if st.remaining > 0 {
			continue
		}
		res.Completed++
		perGroup[st.prio] = append(perGroup[st.prio], st.cct)
		all = append(all, st.cct)
	}
	res.GroupMean = make([]sim.Time, cfg.NPrios)
	res.GroupP99 = make([]sim.Time, cfg.NPrios)
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
		res.GroupP99[p] = ccts[int(0.99*float64(len(ccts)-1))]
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
	Scheme  string
	High4   float64
	Low4    float64
	Overall float64
	// Watchdog carries the scheme run's trip reason (see CoflowResult).
	Watchdog string
}

func speedupOf(base, r CoflowResult, tail bool) CoflowSpeedups {
	pick := func(res CoflowResult, lo, hi int) sim.Time {
		var sum sim.Time
		var n int
		src := res.GroupMean
		if tail {
			src = res.GroupP99
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
		Scheme:   r.Scheme,
		High4:    ratio(pick(base, np/2, np-1), pick(r, np/2, np-1)),
		Low4:     ratio(pick(base, 0, np/2-1), pick(r, 0, np/2-1)),
		Overall:  ratio(baseAll, rAll),
		Watchdog: r.Watchdog,
	}
}

// Fig12Coflow runs the coflow comparison at one load: baseline Swift (no
// priorities), Physical+Swift, and PrioPlus+Swift. With lossy=true it
// reproduces Fig 17. extra appends further schemes (Fig 18: HPCC,
// Physical w/o CC).
func Fig12Coflow(base CoflowConfig, tail bool, extra ...Scheme) []CoflowSpeedups {
	bcfg := base
	bcfg.Scheme = SwiftPhysical(8)
	bcfg.NoPriority = true
	baseline := RunCoflow(bcfg)

	schemes := append([]Scheme{SwiftPhysical(8), PrioPlusSwift()}, extra...)
	var out []CoflowSpeedups
	for _, s := range schemes {
		cfg := base
		cfg.Scheme = s
		out = append(out, speedupOf(baseline, RunCoflow(cfg), tail))
	}
	return out
}
