// Package exp contains one driver per table and figure of the paper's
// evaluation. Each driver builds the scenario's topology and workload,
// runs the schemes under comparison, and returns printable rows whose
// shape can be checked against the paper (EXPERIMENTS.md records both).
package exp

import (
	"prioplus/internal/cc"
	"prioplus/internal/core"
	"prioplus/internal/netsim"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
)

// flowEnv is everything a Scheme needs to build one flow's controller.
type flowEnv struct {
	prio    int // virtual priority, 0 = lowest
	nPrios  int
	baseRTT sim.Time
	bdpPkts float64
	size    int64
	ideal   sim.Time // ideal FCT (size/line rate + base RTT)
	now     sim.Time // flow arrival time (for D2TCP deadlines)
}

// Scheme is one transport configuration under comparison: which CC a flow
// runs, which physical queue its data uses, and how the fabric must be
// configured.
type Scheme struct {
	name string
	// queues returns the number of physical priority queues the fabric
	// needs for nprios virtual priorities (including the ACK queue).
	queues func(nprios int) int
	// losslessPrios returns how many of those queues are PFC-lossless.
	losslessPrios func(nprios int) int
	// queueFor maps a virtual priority to the physical data queue.
	queueFor func(prio, nprios, queues int) int
	// newAlgo builds the flow's congestion controller.
	newAlgo func(env flowEnv) cc.Algorithm
	// headroomFree marks the ideal-physical (Physical*) buffer model.
	headroomFree bool
	// ecnK enables ECN marking at this byte threshold (0 = off).
	ecnK int
	// stampINT enables in-network telemetry stamping on every port (HPCC).
	stampINT bool
	// unboundedBacklog marks a scheme whose congestion control does not
	// bound the backlog a PFC-paused fabric builds (DCQCN, Physical* w/o
	// CC): its paused queues make its cell's heap its figure's largest, so
	// the cell starts last (schemeStart).
	unboundedBacklog bool
}

// swiftFor builds the paper's default Swift for a path.
func swiftFor(env flowEnv, scaling bool) *cc.Swift {
	cfg := cc.DefaultSwiftConfig(env.baseRTT, env.bdpPkts)
	cfg.TargetScaling = scaling
	return cc.NewSwift(cfg)
}

// SwiftPhysical is Swift (original, with target scaling) on real physical
// priority queues, the paper's main baseline. With more virtual priorities
// than queues, priorities are squashed onto the available queues.
func SwiftPhysical(maxQueues int) Scheme {
	return Scheme{
		name:          "Physical+Swift",
		queues:        func(nprios int) int { return min(nprios, maxQueues) + 1 },
		losslessPrios: func(nprios int) int { return min(nprios, maxQueues) },
		queueFor: func(prio, nprios, queues int) int {
			return physicalQueueFor(prio, nprios, queues-1)
		},
		newAlgo: func(env flowEnv) cc.Algorithm { return swiftFor(env, true) },
	}
}

// swiftPhysicalIdeal is Physical*: unlimited lossless priority queues whose
// PFC headroom does not consume shared buffer.
func swiftPhysicalIdeal() Scheme {
	s := SwiftPhysical(1 << 20)
	s.name = "Physical*+Swift"
	s.headroomFree = true
	return s
}

// noCCPhysicalIdeal is Physical* without congestion control: flows blast
// at line rate and rely on priority queues plus PFC. The sender's
// outstanding data is capped at 8 BDP — the finite TX resources a real
// NIC has — so a PFC-paused fabric holds a bounded number of in-flight
// packets instead of the flow's entire remaining size (uncapped, the
// quick-scale fig18 run grew to tens of GB of RSS; see CHANGES.md PR 3).
// The scheme stays uncontrolled: it never reacts to delay, loss, or marks.
func noCCPhysicalIdeal() Scheme {
	s := swiftPhysicalIdeal()
	s.name = "Physical* w/o CC"
	s.unboundedBacklog = true
	s.newAlgo = func(env flowEnv) cc.Algorithm {
		return cc.NewNoCCWindow(8 * env.bdpPkts * netsim.DefaultMTU)
	}
	return s
}

// PrioPlusSwift runs every flow in one physical queue (plus the ACK
// queue), with PrioPlus channels providing the virtual priorities.
func PrioPlusSwift() Scheme {
	return Scheme{
		name:          "PrioPlus+Swift",
		queues:        func(int) int { return 2 },
		losslessPrios: func(int) int { return 1 },
		queueFor:      func(prio, nprios, queues int) int { return 0 },
		newAlgo: func(env flowEnv) cc.Algorithm {
			plan := core.DefaultPlan(env.baseRTT)
			return core.New(swiftFor(env, false), core.DefaultConfig(plan.Channel(env.prio), env.nPrios))
		},
	}
}

// d2tcp runs all flows in one queue with ECN marking; deadlines scale from
// 1.5x ideal FCT (highest priority) to 12x (lowest), per §6.
func d2tcp() Scheme {
	return Scheme{
		name:          "D2TCP",
		queues:        func(int) int { return 2 },
		losslessPrios: func(int) int { return 1 },
		queueFor:      func(prio, nprios, queues int) int { return 0 },
		ecnK:          100_000,
		newAlgo: func(env flowEnv) cc.Algorithm {
			cfg := cc.DefaultDCTCPConfig(env.bdpPkts)
			mult := 12.0
			if env.nPrios > 1 {
				mult = 1.5 + (12-1.5)*float64(env.nPrios-1-env.prio)/float64(env.nPrios-1)
			}
			cfg.Deadline = env.now + sim.Time(mult*float64(env.ideal))
			return cc.NewDCTCP(cfg)
		},
	}
}

// dcqcnPhysical is DCQCN on physical priority queues with ECN marking —
// the standard RoCEv2 deployment, provided as an extra baseline beyond the
// paper's comparison set.
func dcqcnPhysical(maxQueues int) Scheme {
	s := SwiftPhysical(maxQueues)
	s.name = "Physical+DCQCN"
	s.ecnK = 100_000
	s.unboundedBacklog = true
	s.newAlgo = func(env flowEnv) cc.Algorithm {
		rate := netsim.Rate(float64(env.bdpPkts*netsim.DefaultMTU*8) / env.baseRTT.Seconds())
		return cc.NewDCQCN(cc.DefaultDCQCNConfig(rate))
	}
	return s
}

// hpccPhysical is HPCC on physical priority queues with INT telemetry.
func hpccPhysical(maxQueues int) Scheme {
	s := SwiftPhysical(maxQueues)
	s.name = "Physical+HPCC"
	s.stampINT = true
	s.newAlgo = func(env flowEnv) cc.Algorithm {
		return cc.NewHPCC(cc.DefaultHPCCConfig(env.bdpPkts))
	}
	return s
}

// fabric applies a scheme's switch-side requirements to a topology config.
func (s Scheme) fabric(cfg *topo.Config, nprios int) {
	cfg.Queues = s.queues(nprios)
	cfg.Buffer.LosslessPrios = s.losslessPrios(nprios)
	cfg.Buffer.HeadroomFree = s.headroomFree
	if s.ecnK > 0 {
		cfg.Buffer.ECNKMin = s.ecnK
		cfg.Buffer.ECNKMax = s.ecnK
	}
}

// idealFCT returns a flow's unloaded completion time on a path.
func idealFCT(size int64, rate netsim.Rate, baseRTT sim.Time) sim.Time {
	return sim.FromSeconds(float64(size)/rate.BytesPerSec()) + baseRTT
}
