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

// FlowEnv is everything a Scheme needs to build one flow's controller.
type FlowEnv struct {
	Prio    int // virtual priority, 0 = lowest
	NPrios  int
	BaseRTT sim.Time
	BDPPkts float64
	Size    int64
	Ideal   sim.Time // ideal FCT (size/line rate + base RTT)
	Now     sim.Time // flow arrival time (for D2TCP deadlines)
}

// Scheme is one transport configuration under comparison: which CC a flow
// runs, which physical queue its data uses, and how the fabric must be
// configured.
type Scheme struct {
	Name string
	// Queues returns the number of physical priority queues the fabric
	// needs for nprios virtual priorities (including the ACK queue).
	Queues func(nprios int) int
	// LosslessPrios returns how many of those queues are PFC-lossless.
	LosslessPrios func(nprios int) int
	// QueueFor maps a virtual priority to the physical data queue.
	QueueFor func(prio, nprios, queues int) int
	// NewAlgo builds the flow's congestion controller.
	NewAlgo func(env FlowEnv) cc.Algorithm
	// HeadroomFree marks the ideal-physical (Physical*) buffer model.
	HeadroomFree bool
	// ECNK enables ECN marking at this byte threshold (0 = off).
	ECNK int
	// INT enables in-network telemetry stamping on every port (HPCC).
	INT bool
}

// swiftFor builds the paper's default Swift for a path.
func swiftFor(env FlowEnv, scaling bool) *cc.Swift {
	cfg := cc.DefaultSwiftConfig(env.BaseRTT, env.BDPPkts)
	cfg.TargetScaling = scaling
	return cc.NewSwift(cfg)
}

// SwiftPhysical is Swift (original, with target scaling) on real physical
// priority queues, the paper's main baseline. With more virtual priorities
// than queues, priorities are squashed onto the available queues.
func SwiftPhysical(maxQueues int) Scheme {
	return Scheme{
		Name:          "Physical+Swift",
		Queues:        func(nprios int) int { return min(nprios, maxQueues) + 1 },
		LosslessPrios: func(nprios int) int { return min(nprios, maxQueues) },
		QueueFor: func(prio, nprios, queues int) int {
			return physicalQueueFor(prio, nprios, queues-1)
		},
		NewAlgo: func(env FlowEnv) cc.Algorithm { return swiftFor(env, true) },
	}
}

// SwiftPhysicalIdeal is Physical*: unlimited lossless priority queues whose
// PFC headroom does not consume shared buffer.
func SwiftPhysicalIdeal() Scheme {
	s := SwiftPhysical(1 << 20)
	s.Name = "Physical*+Swift"
	s.HeadroomFree = true
	return s
}

// NoCCPhysicalIdeal is Physical* without congestion control: flows blast
// at line rate and rely on priority queues plus PFC. The sender's
// outstanding data is capped at 8 BDP — the finite TX resources a real
// NIC has — so a PFC-paused fabric holds a bounded number of in-flight
// packets instead of the flow's entire remaining size (uncapped, the
// quick-scale fig18 run grew to tens of GB of RSS; see CHANGES.md PR 3).
// The scheme stays uncontrolled: it never reacts to delay, loss, or marks.
func NoCCPhysicalIdeal() Scheme {
	s := SwiftPhysicalIdeal()
	s.Name = "Physical* w/o CC"
	s.NewAlgo = func(env FlowEnv) cc.Algorithm {
		return cc.NewNoCCWindow(8 * env.BDPPkts * netsim.DefaultMTU)
	}
	return s
}

// PrioPlusSwift runs every flow in one physical queue (plus the ACK
// queue), with PrioPlus channels providing the virtual priorities.
func PrioPlusSwift() Scheme {
	return Scheme{
		Name:          "PrioPlus+Swift",
		Queues:        func(int) int { return 2 },
		LosslessPrios: func(int) int { return 1 },
		QueueFor:      func(prio, nprios, queues int) int { return 0 },
		NewAlgo: func(env FlowEnv) cc.Algorithm {
			plan := core.DefaultPlan(env.BaseRTT)
			return core.New(swiftFor(env, false), core.DefaultConfig(plan.Channel(env.Prio), env.NPrios))
		},
	}
}

// D2TCP runs all flows in one queue with ECN marking; deadlines scale from
// 1.5x ideal FCT (highest priority) to 12x (lowest), per §6.
func D2TCP() Scheme {
	return Scheme{
		Name:          "D2TCP",
		Queues:        func(int) int { return 2 },
		LosslessPrios: func(int) int { return 1 },
		QueueFor:      func(prio, nprios, queues int) int { return 0 },
		ECNK:          100_000,
		NewAlgo: func(env FlowEnv) cc.Algorithm {
			cfg := cc.DefaultDCTCPConfig(env.BDPPkts)
			mult := 12.0
			if env.NPrios > 1 {
				mult = 1.5 + (12-1.5)*float64(env.NPrios-1-env.Prio)/float64(env.NPrios-1)
			}
			cfg.Deadline = env.Now + sim.Time(mult*float64(env.Ideal))
			return cc.NewDCTCP(cfg)
		},
	}
}

// DCQCNPhysical is DCQCN on physical priority queues with ECN marking —
// the standard RoCEv2 deployment, provided as an extra baseline beyond the
// paper's comparison set.
func DCQCNPhysical(maxQueues int) Scheme {
	s := SwiftPhysical(maxQueues)
	s.Name = "Physical+DCQCN"
	s.ECNK = 100_000
	s.NewAlgo = func(env FlowEnv) cc.Algorithm {
		rate := netsim.Rate(float64(env.BDPPkts*netsim.DefaultMTU*8) / env.BaseRTT.Seconds())
		return cc.NewDCQCN(cc.DefaultDCQCNConfig(rate))
	}
	return s
}

// HPCCPhysical is HPCC on physical priority queues with INT telemetry.
func HPCCPhysical(maxQueues int) Scheme {
	s := SwiftPhysical(maxQueues)
	s.Name = "Physical+HPCC"
	s.INT = true
	s.NewAlgo = func(env FlowEnv) cc.Algorithm {
		return cc.NewHPCC(cc.DefaultHPCCConfig(env.BDPPkts))
	}
	return s
}

// Fabric applies a scheme's switch-side requirements to a topology config.
func (s Scheme) Fabric(cfg *topo.Config, nprios int) {
	cfg.Queues = s.Queues(nprios)
	cfg.Buffer.LosslessPrios = s.LosslessPrios(nprios)
	cfg.Buffer.HeadroomFree = s.HeadroomFree
	if s.ECNK > 0 {
		cfg.Buffer.ECNKMin = s.ECNK
		cfg.Buffer.ECNKMax = s.ECNK
	}
}

// IdealFCT returns a flow's unloaded completion time on a path.
func IdealFCT(size int64, rate netsim.Rate, baseRTT sim.Time) sim.Time {
	return sim.FromSeconds(float64(size)/rate.BytesPerSec()) + baseRTT
}
