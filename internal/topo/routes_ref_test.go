package topo_test

import (
	"fmt"
	"testing"

	"prioplus/internal/fault"
	"prioplus/internal/netsim"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
)

// referenceRoutes is an independent reimplementation of the pre-dense-table
// routing algorithm: per-destination BFS over the current link state with a
// map-based result, exactly as switches stored routes before the arena
// rewrite. It shares no code with computeRoutes so the two can check each
// other.
func referenceRoutes(n *topo.Network) []map[int][]int32 {
	nh := len(n.Hosts)
	total := nh + len(n.Switches)
	swOf := make(map[*netsim.Switch]int, len(n.Switches))
	for i, sw := range n.Switches {
		swOf[sw] = nh + i
	}
	nodeOf := func(p *netsim.Port) int {
		if p.Host != nil {
			return p.Host.ID
		}
		return swOf[p.Switch]
	}
	type refEdge struct {
		peer int
		port int32
	}
	adj := make([][]refEdge, total)
	for i, sw := range n.Switches {
		for pi, p := range sw.Ports {
			if p.IsDown() || p.Peer.IsDown() {
				continue
			}
			adj[nh+i] = append(adj[nh+i], refEdge{peer: nodeOf(p.Peer), port: int32(pi)})
		}
	}
	for _, h := range n.Hosts {
		if h.NIC.IsDown() || h.NIC.Peer.IsDown() {
			continue
		}
		adj[h.ID] = append(adj[h.ID], refEdge{peer: nodeOf(h.NIC.Peer)})
	}

	out := make([]map[int][]int32, len(n.Switches))
	for i := range out {
		out[i] = make(map[int][]int32)
	}
	for dst := 0; dst < nh; dst++ {
		dist := make([]int, total)
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue := []int{dst}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range adj[u] {
				if dist[e.peer] < 0 {
					dist[e.peer] = dist[u] + 1
					queue = append(queue, e.peer)
				}
			}
		}
		for i := range n.Switches {
			si := nh + i
			if dist[si] < 0 {
				continue
			}
			var ports []int32
			for _, e := range adj[si] {
				if dist[e.peer] == dist[si]-1 {
					ports = append(ports, e.port)
				}
			}
			if len(ports) > 0 {
				out[i][dst] = ports
			}
		}
	}
	return out
}

// assertRoutesMatchReference diffs every switch's dense table against the
// reference map, both directions (no missing and no extra entries).
func assertRoutesMatchReference(t *testing.T, n *topo.Network) {
	t.Helper()
	ref := referenceRoutes(n)
	for i, sw := range n.Switches {
		for dst := 0; dst < len(n.Hosts); dst++ {
			got := sw.Route(dst)
			want := ref[i][dst]
			if len(got) != len(want) {
				t.Fatalf("switch %s dst %d: dense %v != reference %v", sw.Name, dst, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("switch %s dst %d: dense %v != reference %v", sw.Name, dst, got, want)
				}
			}
		}
		if r := sw.Route(len(n.Hosts)); r != nil {
			t.Fatalf("switch %s routes dst %d %v, only %d hosts exist", sw.Name, len(n.Hosts), r, len(n.Hosts))
		}
	}
}

// TestDenseRoutesMatchReference checks the arena-backed tables against the
// independent map-based BFS on every topology builder.
func TestDenseRoutesMatchReference(t *testing.T) {
	builders := []struct {
		name  string
		build func() *topo.Network
	}{
		{"star", func() *topo.Network { return topo.Star(sim.NewEngine(), 8, topo.DefaultConfig()) }},
		{"fattree-k4", func() *topo.Network { return topo.FatTree(sim.NewEngine(), 4, topo.DefaultConfig()) }},
		{"fattree-k6", func() *topo.Network { return topo.FatTree(sim.NewEngine(), 6, topo.DefaultConfig()) }},
		{"coflow-clos", func() *topo.Network { return topo.CoflowClos(sim.NewEngine(), topo.DefaultConfig()) }},
		{"spine-leaf", func() *topo.Network { return topo.SpineLeaf(sim.NewEngine(), 2, 6, 12, topo.DefaultConfig()) }},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			assertRoutesMatchReference(t, b.build())
		})
	}
}

// TestDenseRoutesMatchReferenceAfterRecompute downs links (both ends, as
// the fault layer does) and verifies the rebuilt dense tables still match
// the reference under the degraded link state, then again after recovery.
func TestDenseRoutesMatchReferenceAfterRecompute(t *testing.T) {
	n := topo.FatTree(sim.NewEngine(), 4, topo.DefaultConfig())
	// Down a couple of fabric links: pod0 edge0's first uplink and one
	// core-facing aggregation link.
	var downed []*netsim.Port
	for _, sw := range n.Switches {
		if sw.Name == "p0e0" || sw.Name == "p1a1" {
			for _, p := range sw.Ports {
				if p.Peer.Host == nil {
					p.SetDown(true)
					p.Peer.SetDown(true)
					downed = append(downed, p)
					break
				}
			}
		}
	}
	if len(downed) != 2 {
		t.Fatalf("downed %d links, want 2", len(downed))
	}
	n.RecomputeRoutes()
	assertRoutesMatchReference(t, n)

	// Recover and recompute: tables must converge back to the full set.
	for _, p := range downed {
		p.SetDown(false)
		p.Peer.SetDown(false)
	}
	n.RecomputeRoutes()
	assertRoutesMatchReference(t, n)
	pristine := topo.FatTree(sim.NewEngine(), 4, topo.DefaultConfig())
	for i, sw := range n.Switches {
		for dst := range n.Hosts {
			a, b := sw.Route(dst), pristine.Switches[i].Route(dst)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("switch %s dst %d: post-recovery %v != pristine %v", sw.Name, dst, a, b)
			}
		}
	}
}

// TestRecomputeRoutesZeroAlloc pins the control-plane cost: after the
// first build, recomputes reuse all scratch and every switch's arena.
func TestRecomputeRoutesZeroAlloc(t *testing.T) {
	n := topo.FatTree(sim.NewEngine(), 4, topo.DefaultConfig())
	n.RecomputeRoutes() // warm scratch
	if allocs := testing.AllocsPerRun(50, n.RecomputeRoutes); allocs != 0 {
		t.Errorf("RecomputeRoutes allocates %.1f objects/run, want 0", allocs)
	}
}

// TestRecomputeRoutesUnderFaultPlan runs an actual flap through the fault
// layer and checks the dense tables stay consistent with the reference at
// both edges of the flap window (mirrors how production recomputes fire).
func TestRecomputeRoutesUnderFaultPlan(t *testing.T) {
	eng := sim.NewEngine()
	cfg := topo.DefaultConfig()
	cfg.LinkDelay = 1 * sim.Microsecond
	n := topo.FatTree(eng, 4, cfg)
	plan := fault.NewPlan(1).Flap(50*sim.Microsecond, 100*sim.Microsecond,
		fault.Link("p0e0", "p0a0"))
	inj := plan.Install(n)
	if inj == nil {
		t.Fatal("plan did not install")
	}
	eng.RunUntil(100 * sim.Microsecond) // mid-flap
	assertRoutesMatchReference(t, n)
	eng.RunUntil(200 * sim.Microsecond) // recovered
	assertRoutesMatchReference(t, n)
}
