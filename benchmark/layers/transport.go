//go:build layerbench

package main

import (
	"math/rand"

	"prioplus/internal/cc"
	"prioplus/internal/netsim"
	"prioplus/internal/sim"
	"prioplus/internal/transport"
)

func init() { register("transport", 2, runTransport) }

const (
	pathRate  = 100 * netsim.Gbps
	pathDelay = sim.Microsecond
)

// pathRig is two hosts wired NIC to NIC with a transport stack on each and
// one shared packet pool: the smallest setting in which the full data -> ACK
// round trip runs. Two link traversals per packet, no switch.
type pathRig struct {
	eng    *sim.Engine
	ha, hb *netsim.Host
	a      *transport.Stack
	base   sim.Time
	nextID int64
}

func newPathRig() *pathRig {
	eng := sim.NewEngine()
	ha := netsim.NewHost(eng, 0, pathRate, pathDelay, 2)
	hb := netsim.NewHost(eng, 1, pathRate, pathDelay, 2)
	netsim.Connect(ha.NIC, hb.NIC)
	pool := netsim.NewPacketPool()
	sa := transport.NewStack(eng, ha)
	sa.Pool = pool
	transport.NewStack(eng, hb).Pool = pool
	base := 2 * (pathDelay + pathRate.Serialize(netsim.DefaultMTU+netsim.HeaderBytes))
	return &pathRig{eng: eng, ha: ha, hb: hb, a: sa, base: base}
}

func (r *pathRig) bdpPackets() float64 { return pathRate.BDP(r.base) / netsim.DefaultMTU }

// flow runs one flow of the given size under algo to completion.
func (r *pathRig) flow(size int64, algo cc.Algorithm) *transport.Sender {
	r.nextID++
	s := r.a.NewFlow(transport.FlowSpec{
		ID: r.nextID, Dst: 1, Size: size, BaseRTT: r.base, Algo: algo,
		Rand: rand.New(rand.NewSource(r.nextID)),
	})
	s.Start()
	r.eng.Run()
	if !s.Finished() {
		panic("flow did not complete")
	}
	return s
}

// packets is the length of the long flows the per-packet figures come from.
const packets = 200_000

func runTransport(r *report) {
	rig := newPathRig()
	noCC := func() cc.Algorithm { return cc.NewNoCCWindow(2 * rig.bdpPackets() * netsim.DefaultMTU) }
	long := func(algo cc.Algorithm) { rig.flow(packets*netsim.DefaultMTU, algo) }
	long(noCC()) // warm pools, maps and free lists

	// One data packet and its ACK: two link traversals and the transport's
	// own work. Taking the engine and the netsim rung out leaves the latter.
	r.put("transport.pkt_rtt_ns", aboveEngineNS(5, packets, func() uint64 {
		before := rig.eng.Processed()
		long(noCC())
		return rig.eng.Processed() - before
	})-2*ladder.netsimHopNS, "ns")
	r.put("transport.pkt_rtt_allocs", allocsPerOp(packets, func() { long(noCC()) }), "count")

	ladder.pathDeltaNS = func(a, b func(baseRTT int64, bdpPkts float64) any) float64 {
		build := func(f func(int64, float64) any) cc.Algorithm {
			if f == nil {
				return noCC()
			}
			return f(int64(rig.base), rig.bdpPackets()).(cc.Algorithm)
		}
		long(build(a))
		long(build(b))
		deltas := make([]float64, 5)
		for i := range deltas {
			ta := timeOps(1, packets, func() { long(build(a)) })
			tb := timeOps(1, packets, func() { long(build(b)) })
			deltas[i] = tb - ta
		}
		return medianOf(deltas)
	}

	// Flow churn: a one-packet flow from NewFlow to its completion callback.
	const flows = 50_000
	churn := func() {
		for i := 0; i < flows; i++ {
			rig.flow(1000, noCC())
		}
	}
	churn()
	r.put("transport.newflow_ns", timeOps(3, flows, churn), "ns")

	// Loss recovery on a link that drops 1% of what arrives: exact counts.
	lossy := newPathRig()
	f := lossy.hb.NIC.Fault()
	f.LossRate, f.Rng = 0.01, rand.New(rand.NewSource(7))
	s := lossy.flow(8<<20, cc.NewSwift(cc.DefaultSwiftConfig(lossy.base, lossy.bdpPackets())))
	r.put("transport.retransmits", float64(s.Retransmits), "count")
	r.put("transport.rtos", float64(s.RTOs), "count")
}
