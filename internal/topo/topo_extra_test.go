package topo

import (
	"testing"

	"prioplus/internal/netsim"
	"prioplus/internal/sim"
)

// TestFatTreeNonBlocking checks the rearrangeable non-blocking property
// operationally: a full cross-pod permutation of simultaneous flows should
// complete in about the time of one flow, because ECMP spreads them over
// disjoint paths with no persistent oversubscription.
func TestFatTreeNonBlocking(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.LinkDelay = 1 * sim.Microsecond
	n := FatTree(eng, 4, cfg)
	nh := len(n.Hosts)
	received := make([]int64, nh)
	for i, h := range n.Hosts {
		i := i
		h.Sink = func(pkt *netsim.Packet) {
			if pkt.Type == netsim.Data {
				received[i] += int64(pkt.Payload)
			}
		}
	}
	// Shift-by-half permutation: every flow crosses pods.
	const pkts = 100
	for src := 0; src < nh; src++ {
		dst := (src + nh/2) % nh
		for k := 0; k < pkts; k++ {
			n.Hosts[src].Send(dataPkt(int64(src), src, dst, int64(k)*1000))
		}
	}
	eng.Run()
	for i, r := range received {
		if r != pkts*1000 {
			t.Fatalf("host %d received %d bytes, want %d", i, r, pkts*1000)
		}
	}
	// One flow alone takes pkts * 83.84ns (serialization) + path. With a
	// non-blocking fabric and per-flow ECMP, hash collisions can stack a
	// few flows on one core link, but the finish time should stay within
	// a small multiple of the solo time, far below full serialization of
	// nh flows through one link.
	solo := (100 * netsim.Gbps).Serialize(1048 * pkts)
	if eng.Now() > 6*solo {
		t.Errorf("permutation finished at %v, want <= ~6x solo time %v", eng.Now(), solo)
	}
}

func TestCoflowClosFabricSpeeds(t *testing.T) {
	n := CoflowClos(sim.NewEngine(), DefaultConfig())
	// Host links 100G, fabric links 400G.
	hostPort := n.Hosts[0].NIC
	if hostPort.Rate != 100*netsim.Gbps {
		t.Errorf("host rate %v, want 100G", hostPort.Rate)
	}
	for _, sw := range n.Switches {
		for _, p := range sw.Ports {
			if p.Peer.Host != nil {
				if p.Rate != 100*netsim.Gbps {
					t.Errorf("edge-to-host port at %v, want 100G", p.Rate)
				}
			} else if p.Rate != 400*netsim.Gbps {
				t.Errorf("fabric port at %v, want 400G", p.Rate)
			}
		}
	}
}

func TestSpineLeafOversubscription(t *testing.T) {
	n := SpineLeaf(sim.NewEngine(), 2, 6, 12, DefaultConfig())
	// Each leaf: 12 host ports down, 6 spine ports up -> 2:1.
	for _, sw := range n.Switches[6:] { // spines are created first (6)
		hostPorts, fabricPorts := 0, 0
		for _, p := range sw.Ports {
			if p.Peer.Host != nil {
				hostPorts++
			} else {
				fabricPorts++
			}
		}
		if hostPorts != 12 || fabricPorts != 6 {
			t.Errorf("leaf %s has %d host / %d fabric ports, want 12/6", sw.Name, hostPorts, fabricPorts)
		}
	}
}

func TestRoutesCoverAllHostsOnAllSwitches(t *testing.T) {
	n := FatTree(sim.NewEngine(), 4, DefaultConfig())
	for _, sw := range n.Switches {
		for dst := range n.Hosts {
			if len(sw.Route(dst)) == 0 {
				t.Fatalf("switch %s has no route to host %d", sw.Name, dst)
			}
		}
	}
}

func TestStarHostCount(t *testing.T) {
	for _, nh := range []int{2, 5, 33} {
		n := Star(sim.NewEngine(), nh, DefaultConfig())
		if len(n.Hosts) != nh || len(n.Switches) != 1 {
			t.Errorf("Star(%d): %d hosts, %d switches", nh, len(n.Hosts), len(n.Switches))
		}
	}
}
