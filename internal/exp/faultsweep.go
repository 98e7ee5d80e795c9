package exp

import (
	"prioplus/internal/core"
	"prioplus/internal/fault"
	"prioplus/internal/harness"
	"prioplus/internal/sim"
	"prioplus/internal/stats"
	"prioplus/internal/transport"
)

// faultSweepConfig drives the fault-injection experiment family: a
// cross-pod permutation workload on a fat-tree with a mid-transfer flap of
// one edge-to-agg uplink, run once per scheme (faultSweep); a config holds
// the one scheme its cell runs. The paper validates PrioPlus only on a
// healthy fabric; this sweep measures how its delay-channel behavior
// (yields, containment) and FCT tails degrade when the fabric misbehaves,
// against the physical-queue baselines.
type faultSweepConfig struct {
	scheme   Scheme
	k        int      // fat-tree arity (default 4 -> 16 hosts)
	nPrios   int      // virtual priorities (default 4)
	flowSize int64    // bytes per flow (default 8 MB)
	horizon  sim.Time // run cutoff, generous for RTO recovery (default 20 ms)
	// flapAt/flapDur shape the fault plan: the p0e0-p0a0 uplink goes down
	// at flapAt for flapDur, mid-transfer for the default flow size.
	flapAt  sim.Time
	flapDur sim.Time
	// Options carries the run seed (default 5) and the recorder factory;
	// each scheme's run is tagged with the scheme name.
	Options
}

// defaultFaultSweepConfig returns the standard sweep's config, which
// faultSweepSchemes runs.
func defaultFaultSweepConfig() faultSweepConfig {
	return faultSweepConfig{
		k:        4,
		nPrios:   4,
		flowSize: 8 << 20,
		horizon:  20 * sim.Millisecond,
		Options:  Options{Seed: 5},
		flapAt:   200 * sim.Microsecond,
		flapDur:  300 * sim.Microsecond,
	}
}

// faultSweepSchemes is the standard sweep: PrioPlus+Swift against the
// physical-queue Swift, DCQCN, and HPCC baselines.
func faultSweepSchemes() []Scheme {
	return []Scheme{PrioPlusSwift(), SwiftPhysical(4), dcqcnPhysical(4), hpccPhysical(4)}
}

// faultSweepRow is one scheme's outcome under the fault plan.
type faultSweepRow struct {
	scheme       string
	launched     int
	completed    int
	stuck        int // flows unfinished at the horizon — must be 0
	meanSlowdown float64
	p99Slowdown  float64
	retransmits  int64
	rtos         int64
	faultDrops   int64 // packets dropped by downed links (queued + in-flight)
	corruptDrops int64
	noRouteDrops int64 // packets caught mid-flight with no surviving route
	faultEvents  int   // executed fault actions (flap edges, reboots)
	peakQueueKB  int   // max egress queue HWM across the fabric, containment proxy
	yields       int64 // PrioPlus delay-channel yields (0 for baselines)
}

// faultSweep runs each of schemes through the same fault plan and
// workload, one private engine per scheme: a single mid-transfer flap of
// the p0e0-p0a0 uplink. base.Seed seeds the run's random sources (each
// flow's probe jitter, a RED-marking switch's draws), not the workload: the
// permutation is fixed, and the sweep's ECN marking is a step, which draws
// nothing. So only the PrioPlus+Swift cell reads the seed, through its
// probes' jitter; the Physical+Swift, +DCQCN and +HPCC cells never draw a
// seeded stream, and a memo serves them to every seed.
//
// The sweep runs its scheme cells on idle cores, started in schemeStart's
// order (HPCC first, DCQCN last); the rows, and an instrumented sweep's
// runs, still come back in schemes' order.
func faultSweep(base faultSweepConfig, schemes []Scheme) []faultSweepRow {
	return cells(base.Options, len(schemes), func(i int, o Options) faultSweepRow {
		cfg := base
		cfg.scheme, cfg.Options = schemes[i], o
		return memoize(cfg, faultSweepOne)
	}, schemeStart(schemes)...)
}

// faultSweepOne runs the config's scheme: cross-pod permutation flows
// (every host sends flowSize to the host half the fabric away, so every
// flow crosses the core) with priorities striped across senders. The plan
// is built from the cell's own seed, which a flap never draws from.
func faultSweepOne(cfg faultSweepConfig) faultSweepRow {
	s := cfg.scheme
	plan := fault.NewPlan(cfg.Seed).Flap(cfg.flapAt, cfg.flapDur, fault.Link("p0e0", "p0a0"))
	net := schemeFabric(cfg.Options, s.name, s, cfg.nPrios, longTail{}, fatTree(cfg.k), harness.WithFaults(plan))

	row := faultSweepRow{scheme: s.name}
	// The recorder owns OnFlowDone when one is attached; chain behind it
	// so the sweep's per-flow recovery counters coexist with telemetry.
	for _, st := range net.Stacks {
		inner := st.OnFlowDone
		st.OnFlowDone = func(fs transport.FlowStats) {
			row.retransmits += fs.Retransmits
			row.rtos += fs.RTOs
			if inner != nil {
				inner(fs)
			}
		}
	}

	nHosts := len(net.Topo.Hosts)
	flows := &stats.Collector{}
	var pps []*core.PrioPlus
	for src := 0; src < nHosts; src++ {
		prio := src % cfg.nPrios
		row.launched++
		algo := net.addFlow(src, (src+nHosts/2)%nHosts, cfg.flowSize, prio, 0, func(fct, ideal sim.Time) {
			flows.Add(stats.FlowRecord{Size: cfg.flowSize, FCT: fct, Ideal: ideal, Prio: prio})
		})
		if pp, ok := algo.(*core.PrioPlus); ok {
			pps = append(pps, pp)
		}
	}
	net.Run(cfg.horizon)

	row.completed = flows.Count()
	row.stuck = row.launched - row.completed
	row.meanSlowdown = flows.MeanSlowdown()
	row.p99Slowdown = flows.PercentileSlowdown(0.99)
	for _, sw := range net.Topo.Switches {
		row.noRouteDrops += sw.NoRouteDrop
		for _, p := range sw.Ports {
			row.faultDrops += p.FaultDrops
			row.corruptDrops += p.CorruptDrops
			if kb := p.QueueHWM / 1024; kb > row.peakQueueKB {
				row.peakQueueKB = kb
			}
		}
	}
	for _, h := range net.Topo.Hosts {
		row.faultDrops += h.NIC.FaultDrops
		row.corruptDrops += h.NIC.CorruptDrops
	}
	row.faultEvents = len(net.Faults.Events())
	for _, pp := range pps {
		row.yields += pp.Yields
	}
	return row
}
