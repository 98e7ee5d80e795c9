//go:build layerbench

package main

import (
	"math/rand"

	"prioplus/internal/netsim"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
)

func init() { register("netsim", 1, runNetsim) }

const (
	linkRate  = 100 * netsim.Gbps
	linkDelay = sim.Microsecond
	nQueues   = 8
)

// star wires nHosts hosts to one switch with the netsim API alone.
func star(eng *sim.Engine, nHosts int, buf netsim.BufferConfig) ([]*netsim.Host, *netsim.Switch, *netsim.PacketPool) {
	pool := netsim.NewPacketPool()
	sw := netsim.NewSwitch(eng, "star", buf, rand.New(rand.NewSource(1)))
	sw.Pool = pool
	sw.ResetRoutes(nHosts)
	hosts := make([]*netsim.Host, nHosts)
	for i := range hosts {
		hosts[i] = netsim.NewHost(eng, i, linkRate, linkDelay, nQueues)
		hosts[i].NIC.Pool = pool
		p := sw.AddPort(linkRate, linkDelay, nQueues)
		p.Pool = pool
		netsim.Connect(hosts[i].NIC, p)
		sw.SetRoute(i, []int32{int32(p.Index)})
	}
	sw.Finalize()
	return hosts, sw, pool
}

// bounce keeps window packets circulating from src to dst: every delivery
// recycles the packet and sends the next, so the fabric alone is exercised —
// no transport, no ACKs. It returns once limit packets have arrived.
type bounce struct {
	src, dst *netsim.Host
	pool     *netsim.PacketPool
	flows    int64
	sent     int64
	arrived  int
	limit    int
}

func (b *bounce) send() {
	b.sent++
	b.src.Send(b.pool.Data(1+b.sent%b.flows, b.src.ID, b.dst.ID, 0, b.sent, netsim.DefaultMTU))
}

func (b *bounce) run(eng *sim.Engine, window, limit int) {
	b.arrived, b.limit = 0, limit
	b.dst.Sink = func(pkt *netsim.Packet) {
		b.pool.Put(pkt)
		b.arrived++
		if b.arrived+window <= b.limit {
			b.send()
		}
	}
	for i := 0; i < window; i++ {
		b.send()
	}
	eng.Run()
}

// perHopNS returns the cost of one link traversal beyond the engine's own
// event cost, over packets deliveries of links links each.
func perHopNS(eng *sim.Engine, b *bounce, packets, links int) float64 {
	b.run(eng, 32, packets/10)
	return aboveEngineNS(5, packets*links, func() uint64 {
		before := eng.Processed()
		b.run(eng, 32, packets)
		return eng.Processed() - before
	})
}

// blast has every sender emit count packets to dst at line rate, open loop,
// which overloads dst's access link len(senders):1.
func blast(eng *sim.Engine, senders []*netsim.Host, dst int, pool *netsim.PacketPool, count int) {
	gap := linkRate.Serialize(netsim.DefaultMTU + netsim.HeaderBytes)
	var next func(a, b any)
	next = func(a, b any) {
		h, left := a.(*netsim.Host), b.(*int)
		h.Send(pool.Data(int64(h.ID+1), h.ID, dst, 0, int64(*left), netsim.DefaultMTU))
		if *left--; *left > 0 {
			eng.Post2(gap, next, h, left)
		}
	}
	for _, h := range senders {
		left := count
		eng.Post2(0, next, h, &left)
	}
	eng.Run()
}

func runNetsim(r *report) {
	const packets = 400_000

	eng := sim.NewEngine()
	hosts, _, pool := star(eng, 2, netsim.DefaultBufferConfig())
	b := &bounce{src: hosts[0], dst: hosts[1], pool: pool, flows: 1}
	ladder.netsimHopNS = perHopNS(eng, b, packets, 2)
	r.put("netsim.hop_ns", ladder.netsimHopNS, "ns")
	r.put("netsim.hop_allocs", allocsPerOp(packets, func() { b.run(eng, 32, packets) }), "count")

	// k=4 fat-tree, first host to last: six links, ECMP at edge and
	// aggregation, 64 flow ids so the hash spreads.
	feng := sim.NewEngine()
	ft := topo.FatTree(feng, 4, topo.DefaultConfig())
	fpool := netsim.NewPacketPool()
	fb := &bounce{src: ft.Hosts[0], dst: ft.Hosts[len(ft.Hosts)-1], pool: fpool, flows: 64}
	r.put("netsim.ecmp_hop_ns", perHopNS(feng, fb, packets/2, 6), "ns")

	// 2:1 overload, lossless: PFC must hold the excess in the senders.
	oeng := sim.NewEngine()
	oh, osw, opool := star(oeng, 3, netsim.DefaultBufferConfig())
	oh[2].Sink = func(pkt *netsim.Packet) { opool.Put(pkt) }
	blast(oeng, oh[:2], 2, opool, 20_000)
	r.put("netsim.pfc_pauses", float64(osw.PausesSent()), "count")
	r.put("netsim.buffer_hwm_bytes", float64(osw.BufferHWM()), "bytes")

	// The same overload on a small lossy buffer: the excess is dropped.
	lossy := netsim.DefaultBufferConfig()
	lossy.PFCEnabled, lossy.TotalBytes = false, 256<<10
	leng := sim.NewEngine()
	lh, lsw, lpool := star(leng, 3, lossy)
	lh[2].Sink = func(pkt *netsim.Packet) { lpool.Put(pkt) }
	blast(leng, lh[:2], 2, lpool, 20_000)
	r.put("netsim.drops", float64(lsw.Drops()), "count")
}
