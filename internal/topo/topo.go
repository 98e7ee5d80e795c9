// Package topo builds the network topologies used in the paper's
// evaluation: single-bottleneck stars for micro-benchmarks, the k=6
// fat-tree for the flow-scheduling scenario, a 5-pod non-blocking Clos for
// coflow scheduling, and a 2:1 oversubscribed spine-leaf for the ML
// training scenario. Routing tables (shortest path with ECMP) are computed
// automatically from the wired graph.
package topo

import (
	"fmt"
	"math/rand"

	"prioplus/internal/netsim"
	"prioplus/internal/sim"
)

// Config carries the parameters shared by every topology builder.
type Config struct {
	HostRate   netsim.Rate // host-to-edge link speed
	FabricRate netsim.Rate // switch-to-switch link speed (0 = HostRate)
	LinkDelay  sim.Time    // per-link propagation delay
	Queues     int         // physical priority queues per port
	Buffer     netsim.BufferConfig
	Seed       int64
}

// DefaultConfig matches the paper's micro-benchmark setup: 100 Gb/s links,
// priority queues on every port, lossless fabric.
func DefaultConfig() Config {
	return Config{
		HostRate:  100 * netsim.Gbps,
		LinkDelay: 1 * sim.Microsecond,
		Queues:    8,
		Buffer:    netsim.DefaultBufferConfig(),
		Seed:      1,
	}
}

func (c Config) fabricRate() netsim.Rate {
	if c.FabricRate != 0 {
		return c.FabricRate
	}
	return c.HostRate
}

// Network is a wired topology ready for traffic.
type Network struct {
	Eng      *sim.Engine
	Hosts    []*netsim.Host
	Switches []*netsim.Switch
	Cfg      Config

	// Routing state reused across computeRoutes/path calls: the
	// switch-to-node index is built once (the device set is fixed after
	// the builder returns), and the BFS scratch keeps its capacity so
	// RecomputeRoutes — called on every fault-plan link event — and the
	// per-flow BaseRTT path walks stop allocating in steady state.
	swIndex map[*netsim.Switch]int
	adj     [][]edge
	dist    []int
	queue   []int
	ports   []int32
}

// edge is one usable link out of a graph node: the peer's node index and,
// for switch nodes, the local egress port.
type edge struct {
	peer int
	port int32
}

// connectHost attaches host h to switch sw with the host-link parameters.
func (n *Network) connectHost(h *netsim.Host, sw *netsim.Switch) {
	p := sw.AddPort(n.Cfg.HostRate, n.Cfg.LinkDelay, n.Cfg.Queues)
	netsim.Connect(h.NIC, p)
}

// connectSwitches wires a fabric link between two switches.
func (n *Network) connectSwitches(a, b *netsim.Switch, rate netsim.Rate) {
	pa := a.AddPort(rate, n.Cfg.LinkDelay, n.Cfg.Queues)
	pb := b.AddPort(rate, n.Cfg.LinkDelay, n.Cfg.Queues)
	netsim.Connect(pa, pb)
}

// newHost appends a host with the next ID.
func (n *Network) newHost() *netsim.Host {
	h := netsim.NewHost(n.Eng, len(n.Hosts), n.Cfg.HostRate, n.Cfg.LinkDelay, n.Cfg.Queues)
	n.Hosts = append(n.Hosts, h)
	return h
}

func (n *Network) newSwitch(name string, rng *rand.Rand) *netsim.Switch {
	sw := netsim.NewSwitch(n.Eng, name, n.Cfg.Buffer, rng)
	n.Switches = append(n.Switches, sw)
	return sw
}

// finalize computes routing tables and buffer accounting. Must be called
// once after all wiring.
func (n *Network) finalize() {
	n.computeRoutes()
	for _, sw := range n.Switches {
		sw.Finalize()
	}
}

// ensureIndex builds the switch-to-node map once. Node numbering: hosts
// occupy 0..len(Hosts)-1 (their IDs), switches follow in Switches order.
func (n *Network) ensureIndex() {
	if len(n.swIndex) == len(n.Switches) && n.swIndex != nil {
		return
	}
	n.swIndex = make(map[*netsim.Switch]int, len(n.Switches))
	for i, sw := range n.Switches {
		n.swIndex[sw] = len(n.Hosts) + i
	}
}

// nodeOf maps the device owning port p to its graph node index in O(1) via
// the persistent switch index.
func (n *Network) nodeOf(p *netsim.Port) int {
	if p.Host != nil {
		return p.Host.ID
	}
	if i, ok := n.swIndex[p.Switch]; ok {
		return i
	}
	panic("topo: unknown device")
}

// RecomputeRoutes rebuilds every switch's ECMP table from the current link
// state, skipping links with a downed end. This is the control-plane half
// of failure handling: the fault layer calls it on every link event so
// traffic converges onto surviving paths; between the event and the
// recompute, switches re-hash locally around downed next hops. Stale
// entries for now-unreachable destinations are removed.
func (n *Network) RecomputeRoutes() {
	n.computeRoutes()
}

// computeRoutes runs a BFS from every host and installs ECMP next-hop sets
// in every switch's dense route table. Links with a downed end are treated
// as absent. All scratch (adjacency, BFS arrays, the per-destination port
// set) and the switches' route arenas are reused across calls, so a
// recompute allocates nothing once capacities have grown.
func (n *Network) computeRoutes() {
	nh := len(n.Hosts)
	total := nh + len(n.Switches)
	n.ensureIndex()

	// Adjacency: for each node, its usable links under current link state.
	if cap(n.adj) < total {
		grown := make([][]edge, total)
		copy(grown, n.adj)
		n.adj = grown
	}
	adj := n.adj[:total]
	for i := range adj {
		adj[i] = adj[i][:0]
	}
	for i, sw := range n.Switches {
		si := nh + i
		for pi, p := range sw.Ports {
			if p.Peer == nil {
				panic(fmt.Sprintf("topo: switch %s port %d unwired", sw.Name, pi))
			}
			if p.IsDown() || p.Peer.IsDown() {
				continue
			}
			adj[si] = append(adj[si], edge{peer: n.nodeOf(p.Peer), port: int32(pi)})
		}
		// The rebuild covers every destination below; clearing up front
		// (keeping the arena's capacity) removes stale entries for
		// destinations that became unreachable, so forwarding fails fast
		// instead of spraying into a black hole.
		sw.ResetRoutes(nh)
	}
	// Host adjacency (for BFS traversal only).
	for _, h := range n.Hosts {
		if h.NIC.Peer == nil {
			panic(fmt.Sprintf("topo: host %d unwired", h.ID))
		}
		if h.NIC.IsDown() || h.NIC.Peer.IsDown() {
			continue
		}
		adj[h.ID] = append(adj[h.ID], edge{peer: n.nodeOf(h.NIC.Peer)})
	}

	if cap(n.dist) < total {
		n.dist = make([]int, total)
	}
	dist := n.dist[:total]
	queue, ports := n.queue, n.ports
	for dst := 0; dst < nh; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], dst)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, e := range adj[u] {
				if dist[e.peer] < 0 {
					dist[e.peer] = dist[u] + 1
					queue = append(queue, e.peer)
				}
			}
		}
		for i, sw := range n.Switches {
			si := nh + i
			if dist[si] < 0 {
				continue // unreachable: entry already cleared by ResetRoutes
			}
			ports = ports[:0]
			for _, e := range adj[si] {
				if dist[e.peer] == dist[si]-1 {
					ports = append(ports, e.port)
				}
			}
			if len(ports) > 0 {
				sw.SetRoute(dst, ports)
			}
		}
	}
	n.queue, n.ports = queue[:0], ports[:0]
}

// BaseRTT returns the unloaded round-trip time between two hosts for a
// full-MTU data packet acknowledged by a minimal ACK: per-hop propagation
// plus store-and-forward serialization in both directions.
func (n *Network) BaseRTT(src, dst int) sim.Time {
	path := n.path(src, dst)
	var rtt sim.Time
	wire := netsim.DefaultMTU + netsim.HeaderBytes
	for _, hop := range path {
		rtt += hop.rate.Serialize(wire) + hop.delay
		rtt += hop.rate.Serialize(netsim.AckBytes) + hop.delay
	}
	return rtt
}

type hop struct {
	rate  netsim.Rate
	delay sim.Time
}

// path returns the sequence of links on one shortest path src -> dst. It
// shares the persistent node index and BFS scratch with computeRoutes
// (path runs at flow-setup time, never while a recompute is in progress).
func (n *Network) path(src, dst int) []hop {
	if src == dst {
		return nil
	}
	// BFS from dst so we can walk downhill from src.
	nh := len(n.Hosts)
	total := nh + len(n.Switches)
	n.ensureIndex()
	if cap(n.dist) < total {
		n.dist = make([]int, total)
	}
	dist := n.dist[:total]
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := append(n.queue[:0], dst)
	var hostPort [1]*netsim.Port
	neighbors := func(u int) []*netsim.Port {
		if u < nh {
			hostPort[0] = n.Hosts[u].NIC
			return hostPort[:]
		}
		return n.Switches[u-nh].Ports
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, p := range neighbors(u) {
			v := n.nodeOf(p.Peer)
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	n.queue = queue[:0]
	var hops []hop
	u := src
	for u != dst {
		advanced := false
		for _, p := range neighbors(u) {
			v := n.nodeOf(p.Peer)
			if dist[v] == dist[u]-1 {
				hops = append(hops, hop{rate: p.Rate, delay: p.PropDelay})
				u = v
				advanced = true
				break
			}
		}
		if !advanced {
			panic(fmt.Sprintf("topo: no path from %d to %d", src, dst))
		}
	}
	return hops
}

// Star builds nHosts hosts on a single switch. Host nHosts-1 is
// conventionally the receiver in the micro-benchmarks, making its access
// link the bottleneck.
func Star(eng *sim.Engine, nHosts int, cfg Config) *Network {
	n := &Network{Eng: eng, Cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sw := n.newSwitch("star", rng)
	for i := 0; i < nHosts; i++ {
		n.connectHost(n.newHost(), sw)
	}
	n.finalize()
	return n
}

// FatTree builds a standard k-ary fat-tree: k pods, each with k/2 edge and
// k/2 aggregation switches, (k/2)^2 cores, and k^3/4 hosts.
func FatTree(eng *sim.Engine, k int, cfg Config) *Network {
	if k%2 != 0 {
		panic("topo: fat-tree k must be even")
	}
	n := &Network{Eng: eng, Cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	half := k / 2
	cores := make([]*netsim.Switch, half*half)
	for i := range cores {
		cores[i] = n.newSwitch(fmt.Sprintf("core%d", i), rand.New(rand.NewSource(cfg.Seed+int64(i)+1)))
	}
	_ = rng
	for pod := 0; pod < k; pod++ {
		edges := make([]*netsim.Switch, half)
		aggs := make([]*netsim.Switch, half)
		for i := 0; i < half; i++ {
			edges[i] = n.newSwitch(fmt.Sprintf("p%de%d", pod, i), rand.New(rand.NewSource(cfg.Seed+int64(pod*100+i)+1000)))
			aggs[i] = n.newSwitch(fmt.Sprintf("p%da%d", pod, i), rand.New(rand.NewSource(cfg.Seed+int64(pod*100+i)+2000)))
		}
		for i, e := range edges {
			for j := 0; j < half; j++ {
				n.connectHost(n.newHost(), e)
				n.connectSwitches(e, aggs[j], cfg.fabricRate())
			}
			_ = i
		}
		for i, a := range aggs {
			for j := 0; j < half; j++ {
				n.connectSwitches(a, cores[i*half+j], cfg.fabricRate())
			}
		}
	}
	n.finalize()
	return n
}

// Clos builds a three-tier Clos/fat-tree with explicit dimensions: pods
// pods, each with edges edge switches of hostsPerEdge hosts and aggs
// aggregation switches; coreCount core switches each connected to every
// aggregation switch. fabricRate applies to edge-agg and agg-core links.
// With hostsPerEdge*HostRate == aggs*fabricRate the fabric is non-blocking.
func Clos(eng *sim.Engine, pods, edges, hostsPerEdge, aggs, coreCount int, cfg Config) *Network {
	n := &Network{Eng: eng, Cfg: cfg}
	cores := make([]*netsim.Switch, coreCount)
	for i := range cores {
		cores[i] = n.newSwitch(fmt.Sprintf("core%d", i), rand.New(rand.NewSource(cfg.Seed+int64(i)+1)))
	}
	for pod := 0; pod < pods; pod++ {
		aggSw := make([]*netsim.Switch, aggs)
		for i := range aggSw {
			aggSw[i] = n.newSwitch(fmt.Sprintf("p%da%d", pod, i), rand.New(rand.NewSource(cfg.Seed+int64(pod*100+i)+2000)))
			for _, c := range cores {
				n.connectSwitches(aggSw[i], c, cfg.fabricRate())
			}
		}
		for e := 0; e < edges; e++ {
			edge := n.newSwitch(fmt.Sprintf("p%de%d", pod, e), rand.New(rand.NewSource(cfg.Seed+int64(pod*100+e)+3000)))
			for i := 0; i < hostsPerEdge; i++ {
				n.connectHost(n.newHost(), edge)
			}
			for _, a := range aggSw {
				n.connectSwitches(edge, a, cfg.fabricRate())
			}
		}
	}
	n.finalize()
	return n
}

// CoflowClos builds the paper's coflow-scenario fabric: a non-blocking
// 5-pod fat-tree with 320 hosts, 100 Gb/s host links and 400 Gb/s fabric
// links (8 edge switches x 8 hosts per pod, 2 aggregation switches per
// pod, 8 cores).
func CoflowClos(eng *sim.Engine, cfg Config) *Network {
	cfg.FabricRate = 400 * netsim.Gbps
	return Clos(eng, 5, 8, 8, 2, 8, cfg)
}

// SpineLeaf builds a two-tier leaf-spine fabric: leaves leaf switches with
// hostsPerLeaf hosts each and spines spine switches, one link from every
// leaf to every spine. With 12 hosts x 100G down and 6 spines x 100G up
// this reproduces the paper's 2:1 oversubscribed ML-cluster fabric.
func SpineLeaf(eng *sim.Engine, leaves, spines, hostsPerLeaf int, cfg Config) *Network {
	n := &Network{Eng: eng, Cfg: cfg}
	spineSw := make([]*netsim.Switch, spines)
	for i := range spineSw {
		spineSw[i] = n.newSwitch(fmt.Sprintf("spine%d", i), rand.New(rand.NewSource(cfg.Seed+int64(i)+1)))
	}
	for l := 0; l < leaves; l++ {
		leaf := n.newSwitch(fmt.Sprintf("leaf%d", l), rand.New(rand.NewSource(cfg.Seed+int64(l)+5000)))
		for i := 0; i < hostsPerLeaf; i++ {
			n.connectHost(n.newHost(), leaf)
		}
		for _, sp := range spineSw {
			n.connectSwitches(leaf, sp, cfg.fabricRate())
		}
	}
	n.finalize()
	return n
}
