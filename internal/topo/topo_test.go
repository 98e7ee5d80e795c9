package topo

import (
	"runtime"
	"testing"

	"prioplus/internal/netsim"
	"prioplus/internal/sim"
)

func TestStarBaseRTT(t *testing.T) {
	// The paper's micro-benchmark: 100 Gb/s links with 3 us latency gives
	// a ~12 us RTT through one switch (4 propagation legs).
	cfg := DefaultConfig()
	cfg.LinkDelay = 3 * sim.Microsecond
	n := Star(sim.NewEngine(), 4, cfg)
	rtt := n.BaseRTT(0, 3)
	if rtt < 12*sim.Microsecond || rtt > 13*sim.Microsecond {
		t.Errorf("star base RTT = %v, want ~12us", rtt)
	}
}

// dataPkt returns a fresh 1000-byte data packet at priority 0.
func dataPkt(flow int64, src, dst int, seq int64) *netsim.Packet {
	return netsim.NewPacketPool().Data(flow, src, dst, 0, seq, 1000)
}

func TestStarDelivery(t *testing.T) {
	eng := sim.NewEngine()
	n := Star(eng, 5, DefaultConfig())
	got := 0
	n.Hosts[4].Sink = func(pkt *netsim.Packet) { got++ }
	for src := 0; src < 4; src++ {
		n.Hosts[src].Send(dataPkt(int64(src), src, 4, 0))
	}
	eng.Run()
	if got != 4 {
		t.Errorf("delivered %d, want 4", got)
	}
}

func TestFatTreeShape(t *testing.T) {
	n := FatTree(sim.NewEngine(), 4, DefaultConfig())
	if len(n.Hosts) != 16 {
		t.Errorf("k=4 fat-tree has %d hosts, want 16", len(n.Hosts))
	}
	// 4 cores + 4 pods x (2 edge + 2 agg) = 20 switches.
	if len(n.Switches) != 20 {
		t.Errorf("k=4 fat-tree has %d switches, want 20", len(n.Switches))
	}
}

func TestFatTreeK6Shape(t *testing.T) {
	n := FatTree(sim.NewEngine(), 6, DefaultConfig())
	if len(n.Hosts) != 54 {
		t.Errorf("k=6 fat-tree has %d hosts, want 54", len(n.Hosts))
	}
	if len(n.Switches) != 9+6*6 {
		t.Errorf("k=6 fat-tree has %d switches, want 45", len(n.Switches))
	}
}

func TestFatTreeAllPairsReachable(t *testing.T) {
	eng := sim.NewEngine()
	n := FatTree(eng, 4, DefaultConfig())
	received := make([]int, len(n.Hosts))
	for i, h := range n.Hosts {
		i := i
		h.Sink = func(pkt *netsim.Packet) { received[i]++ }
	}
	sent := 0
	for src := range n.Hosts {
		for dst := range n.Hosts {
			if src == dst {
				continue
			}
			n.Hosts[src].Send(dataPkt(int64(src*100+dst), src, dst, 0))
			sent++
		}
	}
	eng.Run()
	total := 0
	for i, r := range received {
		total += r
		if r != len(n.Hosts)-1 {
			t.Errorf("host %d received %d packets, want %d", i, r, len(n.Hosts)-1)
		}
	}
	if total != sent {
		t.Errorf("delivered %d, want %d", total, sent)
	}
}

func TestFatTreeECMPUsesMultiplePaths(t *testing.T) {
	n := FatTree(sim.NewEngine(), 4, DefaultConfig())
	// An edge switch routing to a host in another pod should have 2
	// equal-cost uplinks.
	edge := n.Switches[4] // first non-core switch is pod0 edge0 (4 cores first)
	foundMulti := false
	for dst := range n.Hosts {
		if dst >= 4 && len(edge.Route(dst)) > 1 { // host in another pod
			foundMulti = true
		}
	}
	if !foundMulti {
		t.Error("no ECMP route with multiple next-hops on an edge switch")
	}
}

func TestFatTreeIntraPodLocality(t *testing.T) {
	// Hosts under the same edge switch must have a 2-hop (host-edge-host)
	// path: base RTT strictly below cross-pod RTT.
	n := FatTree(sim.NewEngine(), 4, DefaultConfig())
	same := n.BaseRTT(0, 1)   // same edge
	cross := n.BaseRTT(0, 15) // different pod
	if same >= cross {
		t.Errorf("same-edge RTT %v >= cross-pod RTT %v", same, cross)
	}
}

func TestCoflowClosShape(t *testing.T) {
	cfg := DefaultConfig()
	n := CoflowClos(sim.NewEngine(), cfg)
	if len(n.Hosts) != 320 {
		t.Errorf("coflow Clos has %d hosts, want 320", len(n.Hosts))
	}
	// 8 cores + 5 pods x (2 agg + 8 edge) = 58 switches.
	if len(n.Switches) != 58 {
		t.Errorf("coflow Clos has %d switches, want 58", len(n.Switches))
	}
}

func TestCoflowClosCrossPodDelivery(t *testing.T) {
	eng := sim.NewEngine()
	n := CoflowClos(eng, DefaultConfig())
	got := 0
	n.Hosts[300].Sink = func(pkt *netsim.Packet) { got++ }
	n.Hosts[0].Send(dataPkt(1, 0, 300, 0))
	eng.Run()
	if got != 1 {
		t.Errorf("cross-pod delivery failed")
	}
}

func TestSpineLeafShape(t *testing.T) {
	n := SpineLeaf(sim.NewEngine(), 2, 6, 12, DefaultConfig())
	if len(n.Hosts) != 24 {
		t.Errorf("spine-leaf has %d hosts, want 24", len(n.Hosts))
	}
	if len(n.Switches) != 8 {
		t.Errorf("spine-leaf has %d switches, want 8", len(n.Switches))
	}
	// Cross-leaf reachability.
	eng := sim.NewEngine()
	n = SpineLeaf(eng, 2, 6, 12, DefaultConfig())
	got := 0
	n.Hosts[23].Sink = func(pkt *netsim.Packet) { got++ }
	n.Hosts[0].Send(dataPkt(1, 0, 23, 0))
	eng.Run()
	if got != 1 {
		t.Error("cross-leaf delivery failed")
	}
}

func TestBaseRTTSymmetric(t *testing.T) {
	n := FatTree(sim.NewEngine(), 4, DefaultConfig())
	for _, pair := range [][2]int{{0, 1}, {0, 5}, {3, 12}} {
		a := n.BaseRTT(pair[0], pair[1])
		b := n.BaseRTT(pair[1], pair[0])
		if a != b {
			t.Errorf("BaseRTT(%d,%d)=%v != BaseRTT(%d,%d)=%v", pair[0], pair[1], a, pair[1], pair[0], b)
		}
	}
}

// TestUnmarkedSwitchSeedsNoSource: a switch's ECN generator seeds its
// 4.9 KB math/rand source on its first draw, and a switch draws only where
// the draw decides a mark, inside RED's ramp (ECNKMin < qlen < ECNKMax).
// Cross-pod ECT traffic through a k=4 fat-tree whose marking is a step
// seeds no source, even with the step so low that every packet is marked;
// the same traffic under RED, its queues inside the ramp, seeds a source in
// at least every switch of a path, and marks the engine's seed witness.
func TestUnmarkedSwitchSeedsNoSource(t *testing.T) {
	run := func(kmin, kmax int) (marks int64, seeded bool, alloc uint64) {
		cfg := DefaultConfig()
		cfg.Buffer.ECNKMin, cfg.Buffer.ECNKMax = kmin, kmax
		eng := sim.NewEngine()
		n := FatTree(eng, 4, cfg)
		for i := 0; i < 8; i++ {
			n.Hosts[i+8].Sink = func(*netsim.Packet) {}
			for k := 0; k < 4; k++ {
				pkt := dataPkt(int64(i), i, i+8, int64(k)*1000)
				pkt.ECT = true
				n.Hosts[i].Send(pkt)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng.Run()
		runtime.ReadMemStats(&after)
		for _, sw := range n.Switches {
			marks += sw.ECNMarks
		}
		return marks, eng.Seeded(), after.TotalAlloc - before.TotalAlloc
	}
	marks, seeded, step := run(1, 1)
	if marks == 0 || seeded {
		t.Errorf("step marking: %d marks, witness marked %t; want marks and no draw", marks, seeded)
	}
	// Every cross-pod path crosses five switches.
	const source = 4 << 10
	if _, seeded, red := run(1, 1<<30); !seeded || red < step+5*source {
		t.Errorf("RED marking in its ramp allocated %d B against %d B for the step (witness marked %t), want at least five sources (%d B each) more",
			red, step, seeded, source)
	}
}
