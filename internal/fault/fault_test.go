package fault_test

import (
	"testing"

	"prioplus/internal/cc"
	"prioplus/internal/fault"
	"prioplus/internal/harness"
	"prioplus/internal/netsim"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
	"prioplus/internal/transport"
)

func starCfg() topo.Config {
	cfg := topo.DefaultConfig()
	cfg.LinkDelay = 3 * sim.Microsecond
	return cfg
}

func swiftFor(net *harness.Net, src, dst int) cc.Algorithm {
	base := net.Topo.BaseRTT(src, dst)
	return cc.NewSwift(cc.DefaultSwiftConfig(base, net.BDPPackets(src, dst)))
}

// portTo finds sw's port wired to the given peer port.
func portTo(sw *netsim.Switch, peer *netsim.Port) *netsim.Port {
	for _, p := range sw.Ports {
		if p.Peer == peer {
			return p
		}
	}
	return nil
}

// TestFlapTakesBothEndsAndReroutes: a scheduled link flap must down both
// ends of the cable (so in-flight packets die in both directions), force a
// route recompute that steers around the dead link, and restore
// everything when the link comes back.
func TestFlapTakesBothEndsAndReroutes(t *testing.T) {
	eng := sim.NewEngine()
	tc := topo.DefaultConfig()
	tc.LinkDelay = 1 * sim.Microsecond
	nw := topo.FatTree(eng, 4, tc)
	plan := fault.NewPlan(1).Flap(100*sim.Microsecond, 100*sim.Microsecond,
		fault.Link("p0e0", "p0a0"))
	net := harness.New(nw, 1, harness.WithFaults(plan))

	var edge *netsim.Switch
	for _, sw := range nw.Switches {
		if sw.Name == "p0e0" {
			edge = sw
		}
	}
	if edge == nil {
		t.Fatal("no p0e0 in fat-tree")
	}

	// Both ends of the one flapped cable are switch ports.
	downPorts := func() int {
		n := 0
		for _, sw := range nw.Switches {
			for _, p := range sw.Ports {
				if p.IsDown() {
					n++
				}
			}
		}
		return n
	}
	eng.RunUntil(150 * sim.Microsecond)
	if got := downPorts(); got != 2 {
		t.Fatalf("%d switch ports down mid-flap, want 2", got)
	}
	var downPort *netsim.Port
	for _, p := range edge.Ports {
		if p.IsDown() {
			downPort = p
		}
	}
	if downPort == nil {
		t.Fatal("no port down on p0e0 mid-flap")
	}
	if !downPort.Peer.IsDown() {
		t.Error("peer end of the flapped cable is still up; in-flight packets toward it would survive")
	}
	// Routes must already avoid the dead uplink for every destination.
	for dst := range nw.Hosts {
		for _, pi := range edge.Route(dst) {
			if int(pi) == downPort.Index {
				t.Errorf("route to host %d still uses the downed uplink", dst)
			}
		}
	}

	eng.RunUntil(250 * sim.Microsecond)
	if got := downPorts(); got != 0 {
		t.Fatalf("%d switch ports down after flap, want 0", got)
	}
	if downPort.IsDown() || downPort.Peer.IsDown() {
		t.Error("link did not come back up")
	}
	evs := net.Faults.Events()
	if len(evs) != 2 || evs[0].Kind != "link_down" || evs[1].Kind != "link_up" {
		t.Errorf("events = %+v, want [link_down link_up]", evs)
	}
}

// TestTwoFlapsRecoverEveryFlow: a plan of two flaps on different uplinks
// of a fat-tree executes four fault events, and every cross-pod flow
// caught by them still completes.
func TestTwoFlapsRecoverEveryFlow(t *testing.T) {
	eng := sim.NewEngine()
	tc := topo.DefaultConfig()
	tc.LinkDelay = 1 * sim.Microsecond
	nw := topo.FatTree(eng, 4, tc)
	plan := fault.NewPlan(42).
		Flap(50*sim.Microsecond, 80*sim.Microsecond, fault.Link("p0e0", "p0a0")).
		Flap(300*sim.Microsecond, 80*sim.Microsecond, fault.Link("p1e0", "p1a0"))
	net := harness.New(nw, 9, harness.WithFaults(plan))
	n, completed := len(nw.Hosts), 0
	for src := range n {
		dst := (src + n/2) % n
		net.AddFlow(harness.Flow{Src: src, Dst: dst, Size: 1 << 20, Prio: 0,
			Algo: swiftFor(net, src, dst), OnComplete: func(sim.Time) { completed++ }})
	}
	eng.RunUntil(10 * sim.Millisecond)
	if evs := net.Faults.Events(); len(evs) != 4 {
		t.Errorf("%d fault events, want 4 (two flaps)", len(evs))
	}
	if completed != n {
		t.Errorf("%d/%d flows stuck under the two-flap plan", n-completed, n)
	}
	var drops int64
	for _, sw := range nw.Switches {
		for _, p := range sw.Ports {
			drops += p.FaultDrops
		}
	}
	if drops == 0 {
		t.Error("the flaps dropped no packet; they missed the transfer")
	}
}

// TestForcedDropsRecoverViaRTO is the loss-recovery regression test: a
// mid-flow flap of the sender's access link force-drops both data packets
// (at the switch end) and ACKs (at the sender's NIC), and the flow must
// still complete via retransmission, with the recovery visible in its
// FlowStats.
func TestForcedDropsRecoverViaRTO(t *testing.T) {
	eng := sim.NewEngine()
	nw := topo.Star(eng, 3, starCfg())
	plan := fault.NewPlan(3).Flap(100*sim.Microsecond, 60*sim.Microsecond,
		fault.Link("star", "host0"))
	net := harness.New(nw, 7, harness.WithFaults(plan))

	var st transport.FlowStats
	net.Stacks[0].OnFlowDone = func(fs transport.FlowStats) { st = fs }
	done := false
	const size = 4 << 20
	net.AddFlow(harness.Flow{Src: 0, Dst: 2, Size: size, Prio: 0,
		Algo: swiftFor(net, 0, 2), OnComplete: func(sim.Time) { done = true }})
	eng.RunUntil(20 * sim.Millisecond)

	if !done {
		t.Fatal("flow did not complete after the flap")
	}
	if st.Size != size || st.Dst != 2 || st.FCT <= 0 {
		t.Errorf("FlowStats identity wrong: %+v", st)
	}
	if st.Retransmits == 0 {
		t.Error("flow completed without retransmits; the flap dropped nothing")
	}
	if st.RTOs == 0 {
		t.Error("no RTO fired; with the only path down, recovery must come from the timer")
	}
	swPort := portTo(nw.Switches[0], nw.Hosts[0].NIC)
	if swPort.FaultDrops == 0 {
		t.Error("no data packets dropped at the switch end of the flapped link")
	}
	if nw.Hosts[0].NIC.FaultDrops == 0 {
		t.Error("no ACKs dropped at the sender's NIC")
	}
}

// TestImpairedLinkDeterministic: random loss and corruption on a link come
// from a per-link RNG seeded by plan seed and stable link identity, so (a)
// two identical runs drop identically, and (b) the order impairments are
// declared in is irrelevant.
func TestImpairedLinkDeterministic(t *testing.T) {
	run := func(build func() *fault.Plan) (faultDrops, corruptDrops int64, fct sim.Time) {
		eng := sim.NewEngine()
		nw := topo.Star(eng, 4, starCfg())
		net := harness.New(nw, 7, harness.WithFaults(build()))
		net.AddFlow(harness.Flow{Src: 0, Dst: 3, Size: 1 << 20, Prio: 0,
			Algo: swiftFor(net, 0, 3), OnComplete: func(d sim.Time) { fct = d }})
		eng.RunUntil(20 * sim.Millisecond)
		swPort := portTo(nw.Switches[0], nw.Hosts[0].NIC)
		faultDrops = swPort.FaultDrops + nw.Hosts[0].NIC.FaultDrops
		corruptDrops = swPort.CorruptDrops + nw.Hosts[0].NIC.CorruptDrops
		return
	}
	l0, l1 := fault.Link("star", "host0"), fault.Link("star", "host1")
	ab := func() *fault.Plan { return fault.NewPlan(9).Impair(l0, 0.02, 0.02).Impair(l1, 0.1, 0) }
	ba := func() *fault.Plan { return fault.NewPlan(9).Impair(l1, 0.1, 0).Impair(l0, 0.02, 0.02) }

	f1, c1, fct1 := run(ab)
	f2, c2, fct2 := run(ab)
	f3, c3, fct3 := run(ba)
	if fct1 == 0 {
		t.Fatal("flow did not complete under 4% impairment")
	}
	if f1 == 0 || c1 == 0 {
		t.Fatalf("impairment inert: %d loss drops, %d corrupt drops", f1, c1)
	}
	if f1 != f2 || c1 != c2 || fct1 != fct2 {
		t.Errorf("identical runs diverged: drops %d/%d vs %d/%d, fct %v vs %v", f1, c1, f2, c2, fct1, fct2)
	}
	if f1 != f3 || c1 != c3 || fct1 != fct3 {
		t.Errorf("impairment declaration order changed the run: drops %d/%d vs %d/%d, fct %v vs %v",
			f1, c1, f3, c3, fct1, fct3)
	}
}

// TestRebootDrainsAndRecovers: a switch reboot drops every queued packet
// back to the pool and clears PFC pause state; traffic through it must
// recover and complete.
func TestRebootDrainsAndRecovers(t *testing.T) {
	eng := sim.NewEngine()
	nw := topo.Star(eng, 5, starCfg())
	plan := fault.NewPlan(11).Reboot(150*sim.Microsecond, "star")
	net := harness.New(nw, 7, harness.WithFaults(plan))

	completed := 0
	for src := 0; src < 4; src++ {
		net.AddFlow(harness.Flow{Src: src, Dst: 4, Size: 1 << 20, Prio: 0,
			Algo: swiftFor(net, src, 4), OnComplete: func(sim.Time) { completed++ }})
	}
	eng.RunUntil(20 * sim.Millisecond)
	if completed != 4 {
		t.Fatalf("%d/4 flows completed after reboot", completed)
	}
	evs := net.Faults.Events()
	if len(evs) != 1 || evs[0].Kind != "reboot" || evs[0].Dev != "star" {
		t.Errorf("events = %+v, want one reboot of star", evs)
	}
	// The incast must actually have had a backlog to drop: reboot-dropped
	// packets are counted as fault drops on the switch's ports.
	var dropped int64
	for _, p := range nw.Switches[0].Ports {
		dropped += p.FaultDrops
	}
	if dropped == 0 {
		t.Error("reboot dropped nothing; the drain path went untested")
	}
}

// TestEmptyPlanIsFree: WithFaults on a nil or empty plan must not install
// an injector, keeping the healthy path identical to a build without the
// option.
func TestEmptyPlanIsFree(t *testing.T) {
	eng := sim.NewEngine()
	net := harness.New(topo.Star(eng, 3, starCfg()), 7, harness.WithFaults(nil))
	if net.Faults != nil {
		t.Error("nil plan installed an injector")
	}
	eng2 := sim.NewEngine()
	net2 := harness.New(topo.Star(eng2, 3, starCfg()), 7, harness.WithFaults(fault.NewPlan(1)))
	if net2.Faults != nil {
		t.Error("empty plan installed an injector")
	}
}
