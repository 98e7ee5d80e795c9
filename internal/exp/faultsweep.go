package exp

import (
	"prioplus/internal/core"
	"prioplus/internal/fault"
	"prioplus/internal/sim"
	"prioplus/internal/stats"
	"prioplus/internal/transport"
)

// FaultSweepConfig drives the fault-injection experiment family: a
// cross-pod permutation workload on a fat-tree with a mid-transfer flap of
// one edge-to-agg uplink, run once per scheme. The paper validates
// PrioPlus only on a healthy fabric; this sweep measures how its
// delay-channel behavior (yields, containment) and FCT tails degrade when
// the fabric misbehaves, against the physical-queue baselines.
type FaultSweepConfig struct {
	K        int      // fat-tree arity (default 4 -> 16 hosts)
	NPrios   int      // virtual priorities (default 4)
	FlowSize int64    // bytes per flow (default 8 MB)
	Horizon  sim.Time // run cutoff, generous for RTO recovery (default 20 ms)
	// FlapAt/FlapDur shape the default fault plan: the p0e0-p0a0 uplink
	// goes down at FlapAt for FlapDur, mid-transfer for the default flow
	// size. A plan in Options.Faults replaces the default plan entirely.
	FlapAt  sim.Time
	FlapDur sim.Time
	Schemes []Scheme
	// Options carries the workload seed (default 5), the fault plan and the
	// recorder factory; each scheme's run is tagged with the scheme name.
	Options
}

// DefaultFaultSweepConfig returns the standard sweep: PrioPlus+Swift
// against the physical-queue Swift, DCQCN, and HPCC baselines.
func DefaultFaultSweepConfig() FaultSweepConfig {
	return FaultSweepConfig{
		K:        4,
		NPrios:   4,
		FlowSize: 8 << 20,
		Horizon:  20 * sim.Millisecond,
		Options:  Options{Seed: 5},
		FlapAt:   200 * sim.Microsecond,
		FlapDur:  300 * sim.Microsecond,
		Schemes: []Scheme{
			PrioPlusSwift(),
			SwiftPhysical(4),
			DCQCNPhysical(4),
			HPCCPhysical(4),
		},
	}
}

// FaultSweepRow is one scheme's outcome under the fault plan.
type FaultSweepRow struct {
	Scheme       string
	Launched     int
	Completed    int
	Stuck        int // flows unfinished at the horizon — must be 0
	MeanSlowdown float64
	P99Slowdown  float64
	Retransmits  int64
	RTOs         int64
	FaultDrops   int64 // packets dropped by downed links (queued + in-flight)
	CorruptDrops int64
	NoRouteDrops int64 // packets caught mid-flight with no surviving route
	FaultEvents  int   // executed fault actions (flap edges, reboots)
	PeakQueueKB  int   // max egress queue HWM across the fabric, containment proxy
	Yields       int64 // PrioPlus delay-channel yields (0 for baselines)
}

// FaultSweep runs every scheme of the config through the same fault plan
// and workload. The default plan is a single mid-transfer flap of the
// p0e0-p0a0 uplink; cfg.Faults substitutes any plan and cfg.Seed reseeds
// the workload.
//
// The schemes run one after another on purpose, not through cells: DCQCN
// does not bound the backlog a paused fabric builds, and its cell's paused
// NIC queues hold about 7.6 MB of simulated packets mid-run (some 4 MB live,
// against 1-2 MB for the other schemes), so running it beside another cell
// costs more peak memory than the second core saves in time.
func FaultSweep(cfg FaultSweepConfig) []FaultSweepRow {
	if cfg.Faults == nil {
		cfg.Faults = fault.NewPlan(cfg.Seed).Flap(cfg.FlapAt, cfg.FlapDur, fault.Link("p0e0", "p0a0"))
	}
	rows := make([]FaultSweepRow, 0, len(cfg.Schemes))
	for _, s := range cfg.Schemes {
		rows = append(rows, faultSweepOne(s, cfg))
	}
	return rows
}

// faultSweepOne runs one scheme: cross-pod permutation flows (every host
// sends FlowSize to the host half the fabric away, so every flow crosses
// the core) with priorities striped across senders.
func faultSweepOne(s Scheme, cfg FaultSweepConfig) FaultSweepRow {
	net := schemeFabric(cfg.Options, s.Name, s, cfg.NPrios, longTail{}, fatTree(cfg.K))

	row := FaultSweepRow{Scheme: s.Name}
	// The recorder owns OnFlowDone when one is attached; chain behind it
	// so the sweep's per-flow recovery counters coexist with telemetry.
	for _, st := range net.Stacks {
		inner := st.OnFlowDone
		st.OnFlowDone = func(fs transport.FlowStats) {
			row.Retransmits += fs.Retransmits
			row.RTOs += fs.RTOs
			if inner != nil {
				inner(fs)
			}
		}
	}

	nHosts := len(net.Topo.Hosts)
	flows := &stats.Collector{}
	var pps []*core.PrioPlus
	for src := 0; src < nHosts; src++ {
		prio := src % cfg.NPrios
		row.Launched++
		algo := net.addFlow(src, (src+nHosts/2)%nHosts, cfg.FlowSize, prio, 0, func(fct, ideal sim.Time) {
			flows.Add(stats.FlowRecord{Size: cfg.FlowSize, FCT: fct, Ideal: ideal, Prio: prio})
		})
		if pp, ok := algo.(*core.PrioPlus); ok {
			pps = append(pps, pp)
		}
	}
	net.Run(cfg.Horizon)

	row.Completed = flows.Count()
	row.Stuck = row.Launched - row.Completed
	row.MeanSlowdown = flows.MeanSlowdown()
	row.P99Slowdown = flows.PercentileSlowdown(0.99)
	for _, sw := range net.Topo.Switches {
		row.NoRouteDrops += sw.NoRouteDrop
		for _, p := range sw.Ports {
			row.FaultDrops += p.FaultDrops
			row.CorruptDrops += p.CorruptDrops
			if kb := p.QueueHWM / 1024; kb > row.PeakQueueKB {
				row.PeakQueueKB = kb
			}
		}
	}
	for _, h := range net.Topo.Hosts {
		row.FaultDrops += h.NIC.FaultDrops
		row.CorruptDrops += h.NIC.CorruptDrops
	}
	if net.Faults != nil {
		row.FaultEvents = len(net.Faults.Events())
	}
	for _, pp := range pps {
		row.Yields += pp.Yields
	}
	return row
}
