package transport_test

import (
	"math/rand"
	"testing"

	"prioplus/internal/cc"
	"prioplus/internal/netsim"
	"prioplus/internal/obs"
	"prioplus/internal/sim"
	"prioplus/internal/transport"
)

// pathRig is a minimal one-hop network: two hosts wired NIC-to-NIC, a
// transport stack on each, one shared packet pool — the smallest setting
// in which the full data->ACK round trip runs.
type pathRig struct {
	eng    *sim.Engine
	pool   *netsim.PacketPool
	ha, hb *netsim.Host
	a, b   *transport.Stack
	base   sim.Time
}

func newPathRig() *pathRig {
	eng := sim.NewEngine()
	ha := netsim.NewHost(eng, 0, 100*netsim.Gbps, sim.Microsecond, 2)
	hb := netsim.NewHost(eng, 1, 100*netsim.Gbps, sim.Microsecond, 2)
	netsim.Connect(ha.NIC, hb.NIC)
	pool := netsim.NewPacketPool()
	sa := transport.NewStack(eng, ha)
	sa.Pool = pool
	sb := transport.NewStack(eng, hb)
	sb.Pool = pool
	// One propagation + serialization each way.
	base := 2 * (sim.Microsecond + (100 * netsim.Gbps).Serialize(netsim.DefaultMTU+netsim.HeaderBytes))
	return &pathRig{eng: eng, pool: pool, ha: ha, hb: hb, a: sa, b: sb, base: base}
}

func (r *pathRig) flow(id, size int64) *transport.Sender {
	return r.a.NewFlow(r.spec(id, size))
}

func (r *pathRig) spec(id, size int64) transport.FlowSpec {
	bdpPkts := (100 * netsim.Gbps).BDP(r.base) / netsim.DefaultMTU
	return transport.FlowSpec{
		ID: id, Dst: 1, Size: size, Prio: 0,
		BaseRTT: r.base,
		Algo:    cc.NewSwift(cc.DefaultSwiftConfig(r.base, bdpPkts)),
		Rand:    rand.New(rand.NewSource(id)),
	}
}

// BenchmarkPacketPath measures the full per-packet cost of the simulator's
// hot path — emit, serialize, propagate, deliver, ACK, deliver, CC hook,
// recycle — for one flow over one hop. One op is one data packet and its
// ACK; the steady state must report 0 allocs/op.
func BenchmarkPacketPath(b *testing.B) {
	rig := newPathRig()
	rig.flow(1, 1<<20).Start() // warm the pools, maps, and free lists
	rig.eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	s := rig.flow(2, int64(b.N)*netsim.DefaultMTU)
	s.Start()
	rig.eng.Run()
	b.StopTimer()
	if !s.Finished() {
		b.Fatal("flow did not complete")
	}
}

// TestPooledFlowDeliversEverything is the end-to-end sanity check for the
// pooled transport path: a flow large enough to recycle every packet many
// times over still delivers and acknowledges every byte.
func TestPooledFlowDeliversEverything(t *testing.T) {
	rig := newPathRig()
	s := rig.flow(1, 4<<20)
	s.Start()
	rig.eng.Run()
	if !s.Finished() {
		t.Fatal("pooled flow did not complete")
	}
	if rig.pool.News >= rig.pool.Gets/10 {
		t.Errorf("pool barely recycling: %d fresh allocations out of %d gets",
			rig.pool.News, rig.pool.Gets)
	}
}

// TestPacketPathZeroAllocTracerOff pins the instrumentation-off cost of
// the packet path at zero: with the hooks compiled in, the steady-state
// packet path (emit, serialize, deliver, ACK, CC hook, recycle) must not
// allocate — with no tracer installed, with a FlowTracer installed whose
// sampling policy skipped the flow (nil FlowLog, the common case), and
// with fault hooks armed on both NICs but no impairment active (link up,
// zero loss and corruption rates).
func TestPacketPathZeroAllocTracerOff(t *testing.T) {
	cases := []struct {
		name    string
		install func(r *pathRig)
	}{
		{"no-tracer", func(r *pathRig) {}},
		{"tracer-unsampled", func(r *pathRig) {
			ft := obs.NewFlowTracer(1)
			ft.PacketEvery = 1
			if ft.Admit(999) == nil { // exhaust the cap: later flows unsampled
				t.Fatal("sentinel flow not admitted")
			}
			r.a.FlowTrace = ft
			r.b.FlowTrace = ft
		}},
		{"fault-armed-quiescent", func(r *pathRig) {
			// Materializes the PortFault so every delivery takes the
			// fault branch, which must decline without allocating.
			r.ha.NIC.Fault()
			r.hb.NIC.Fault()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newPathRig()
			tc.install(rig)
			s := rig.flow(2, 1<<40) // effectively unbounded: never finishes
			s.Start()
			now := sim.Time(0)
			advance := func() {
				now += 50 * sim.Microsecond
				rig.eng.RunUntil(now)
			}
			for i := 0; i < 50; i++ {
				advance() // reach steady state: pools warm, cwnd settled
			}
			if allocs := testing.AllocsPerRun(100, advance); allocs != 0 {
				t.Errorf("steady-state packet path allocates %v/op, want 0", allocs)
			}
			if s.Finished() {
				t.Fatal("flow finished during the measurement window")
			}
		})
	}
}

// TestPacedSenderTimersZeroAlloc pins the sender's timers at zero
// allocations: a paced flow arms its pacing timer once per packet, and
// every emit pushes the RTO deadline forward, so the lazy RTO event fires
// early and re-arms itself about once per RTOMin. Neither arm may build a
// closure or a method value.
func TestPacedSenderTimersZeroAlloc(t *testing.T) {
	rig := newPathRig()
	spec := rig.spec(2, 1<<40) // effectively unbounded: never finishes
	spec.Paced = true
	s := rig.a.NewFlow(spec)
	s.Start()
	now := sim.Time(0)
	advance := func() {
		now += 250 * sim.Microsecond // 2.5 RTOMin: at least two RTO re-arms
		rig.eng.RunUntil(now)
	}
	for i := 0; i < 20; i++ {
		advance()
	}
	if allocs := testing.AllocsPerRun(50, advance); allocs != 0 {
		t.Errorf("paced sender with a re-arming RTO allocates %v/op, want 0", allocs)
	}
	if s.Finished() || s.RTOs != 0 {
		t.Fatalf("finished=%v RTOs=%d, want a live flow whose RTO only ever re-armed", s.Finished(), s.RTOs)
	}
}
