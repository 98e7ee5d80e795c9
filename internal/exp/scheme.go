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
// configured. It is plain data, so a config holding one prints whole with
// %#v — which is how the cell memo keys it (memoKey).
type Scheme struct {
	name string
	// maxQueues is the queue layout. 0 runs every virtual priority in one
	// shared data queue; n > 0 gives the priorities min(nprios, n) data
	// queues, squashing the priorities beyond n onto them
	// (physicalQueueFor). Either way the data queues are PFC-lossless and
	// the fabric adds the ACK queue.
	maxQueues int
	// cc is the controller each flow runs (newAlgo).
	cc ccKind
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

// ccKind names the congestion controller a Scheme builds for each flow.
type ccKind uint8

const (
	scaledSwift   ccKind = iota // Swift with target scaling
	prioPlusSwift               // PrioPlus over Swift without target scaling
	d2tcpCC                     // DCTCP with deadlines scaled by priority
	dcqcnCC
	hpccCC
	noCCWindow // line rate, outstanding data capped at 8 BDP
)

// swiftFor builds the paper's default Swift for a path.
func swiftFor(env flowEnv, scaling bool) *cc.Swift {
	cfg := cc.DefaultSwiftConfig(env.baseRTT, env.bdpPkts)
	cfg.TargetScaling = scaling
	return cc.NewSwift(cfg)
}

// newAlgo builds the flow's congestion controller.
func (s Scheme) newAlgo(env flowEnv) cc.Algorithm {
	switch s.cc {
	case prioPlusSwift:
		plan := core.DefaultPlan(env.baseRTT)
		return core.New(swiftFor(env, false), core.DefaultConfig(plan.Channel(env.prio), env.nPrios))
	case d2tcpCC:
		cfg := cc.DefaultDCTCPConfig(env.bdpPkts)
		mult := 12.0
		if env.nPrios > 1 {
			mult = 1.5 + (12-1.5)*float64(env.nPrios-1-env.prio)/float64(env.nPrios-1)
		}
		cfg.Deadline = env.now + sim.Time(mult*float64(env.ideal))
		return cc.NewDCTCP(cfg)
	case dcqcnCC:
		rate := netsim.Rate(float64(env.bdpPkts*netsim.DefaultMTU*8) / env.baseRTT.Seconds())
		return cc.NewDCQCN(cc.DefaultDCQCNConfig(rate))
	case hpccCC:
		return cc.NewHPCC(cc.DefaultHPCCConfig(env.bdpPkts))
	case noCCWindow:
		return cc.NewNoCCWindow(8 * env.bdpPkts * netsim.DefaultMTU)
	default:
		return swiftFor(env, true)
	}
}

// dataQueues is how many physical data queues the fabric needs for nprios
// virtual priorities.
func (s Scheme) dataQueues(nprios int) int {
	if s.maxQueues == 0 {
		return 1
	}
	return min(nprios, s.maxQueues)
}

// queueFor maps a virtual priority to its physical data queue.
func (s Scheme) queueFor(prio, nprios int) int {
	if s.maxQueues == 0 {
		return 0
	}
	return physicalQueueFor(prio, nprios, s.dataQueues(nprios))
}

// SwiftPhysical is Swift (original, with target scaling) on real physical
// priority queues, the paper's main baseline. With more virtual priorities
// than queues, priorities are squashed onto the available queues.
func SwiftPhysical(maxQueues int) Scheme {
	return Scheme{name: "Physical+Swift", maxQueues: maxQueues}
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
	s.cc = noCCWindow
	return s
}

// PrioPlusSwift runs every flow in one physical queue (plus the ACK
// queue), with PrioPlus channels providing the virtual priorities.
func PrioPlusSwift() Scheme {
	return Scheme{name: "PrioPlus+Swift", cc: prioPlusSwift}
}

// d2tcp runs all flows in one queue with ECN marking; deadlines scale from
// 1.5x ideal FCT (highest priority) to 12x (lowest), per §6.
func d2tcp() Scheme {
	return Scheme{name: "D2TCP", cc: d2tcpCC, ecnK: 100_000}
}

// dcqcnPhysical is DCQCN on physical priority queues with ECN marking —
// the standard RoCEv2 deployment, provided as an extra baseline beyond the
// paper's comparison set.
func dcqcnPhysical(maxQueues int) Scheme {
	s := SwiftPhysical(maxQueues)
	s.name = "Physical+DCQCN"
	s.ecnK = 100_000
	s.unboundedBacklog = true
	s.cc = dcqcnCC
	return s
}

// hpccPhysical is HPCC on physical priority queues with INT telemetry.
func hpccPhysical(maxQueues int) Scheme {
	s := SwiftPhysical(maxQueues)
	s.name = "Physical+HPCC"
	s.stampINT = true
	s.cc = hpccCC
	return s
}

// fabric applies a scheme's switch-side requirements to a topology config:
// its lossless data queues plus the ACK queue, its buffer model and its
// ECN threshold.
func (s Scheme) fabric(cfg *topo.Config, nprios int) {
	q := s.dataQueues(nprios)
	cfg.Queues = q + 1
	cfg.Buffer.LosslessPrios = q
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
