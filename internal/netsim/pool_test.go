package netsim

import (
	"math"
	"testing"
	"unsafe"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

func TestPoolRecyclesAndStampsGeneration(t *testing.T) {
	pool := NewPacketPool()
	pkt := pool.Data(1, 0, 1, 0, 0, 1000)
	if pkt.Generation() != 0 {
		t.Fatalf("fresh packet generation = %d, want 0", pkt.Generation())
	}
	pool.Put(pkt)
	again := pool.Data(2, 0, 1, 0, 0, 500)
	if again != pkt {
		t.Fatal("pool did not recycle the freed packet")
	}
	if again.Generation() != 1 {
		t.Errorf("recycled packet generation = %d, want 1", again.Generation())
	}
	if again.FlowID != 2 || again.Payload != 500 || again.Wire != 500+HeaderBytes {
		t.Errorf("recycled packet not reinitialized: %+v", again)
	}
	if again.CE || again.ECT || again.SentAt != 0 || len(again.INT) != 0 {
		t.Errorf("recycled packet carries stale state: %+v", again)
	}
	if pool.Gets != 2 || pool.Puts != 1 || pool.News != 1 {
		t.Errorf("pool counters = gets %d puts %d news %d, want 2/1/1",
			pool.Gets, pool.Puts, pool.News)
	}
}

func TestNilPoolFallsBackToAllocation(t *testing.T) {
	var pool *PacketPool
	pkt := pool.Data(1, 0, 1, 0, 0, 1000)
	if pkt == nil || pkt.Wire != 1000+HeaderBytes {
		t.Fatalf("nil pool Data broken: %+v", pkt)
	}
	pool.Put(pkt) // must be a no-op, not a crash
	if pool.FreeLen() != 0 {
		t.Error("nil pool grew a free list")
	}
}

// TestAckDoesNotAliasINT is the regression test for the NewAck INT-slice
// aliasing bug: with pooling, an ACK sharing the data packet's backing
// array would be corrupted as soon as the data packet is recycled and its
// INT records overwritten by the next incarnation.
func TestAckDoesNotAliasINT(t *testing.T) {
	// Pool-free path: NewAck copies, the caller keeps the data packet.
	data := NewData(1, 0, 1, 0, 0, 1000)
	data.INT = append(data.INT, INTRecord{QLen: 7, TxBytes: 42})
	ack := NewAck(data, 0, 1000)
	data.INT[0].QLen = 99
	if len(ack.INT) != 1 || ack.INT[0].QLen != 7 {
		t.Errorf("NewAck aliases the data packet's INT slice: ack.INT = %+v", ack.INT)
	}

	// Pooled path: ownership handoff. Recycle the data packet, reuse it,
	// and grow fresh INT records on the new incarnation — the in-flight
	// ACK must be unaffected.
	pool := NewPacketPool()
	d := pool.Data(1, 0, 1, 0, 0, 1000)
	d.INT = append(d.INT, INTRecord{QLen: 7, TxBytes: 42})
	ack2 := pool.Ack(d, 0, 1000)
	pool.Put(d)
	next := pool.Data(2, 0, 1, 0, 1000, 1000)
	for i := 0; i < 8; i++ {
		next.INT = append(next.INT, INTRecord{QLen: 1000 + i})
	}
	if len(ack2.INT) != 1 || ack2.INT[0].QLen != 7 || ack2.INT[0].TxBytes != 42 {
		t.Errorf("recycled data packet corrupted the in-flight ACK: ack.INT = %+v", ack2.INT)
	}
}

// TestPoolGetPutZeroAlloc pins the pool round-trip at zero allocations
// once the free list is warm.
func TestPoolGetPutZeroAlloc(t *testing.T) {
	pool := NewPacketPool()
	pool.Put(pool.Data(1, 0, 1, 0, 0, 1000))
	if avg := testing.AllocsPerRun(200, func() {
		pkt := pool.Data(1, 0, 1, 0, 0, 1000)
		pool.Put(pkt)
	}); avg != 0 {
		t.Errorf("pool Data/Put round trip: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		data := pool.Data(1, 0, 1, 0, 0, 1000)
		ack := pool.Ack(data, 0, 1000)
		pool.Put(data)
		pool.Put(ack)
	}); avg != 0 {
		t.Errorf("pool Data/Ack/Put round trip: %v allocs/op, want 0", avg)
	}
}

// TestOneHopPacketPathZeroAlloc drives a full one-hop round trip — data
// packet serialized and propagated host-to-host, ACK built at the receiver
// from the pool, delivered back, and both recycled — and requires the
// steady state to be allocation-free.
func TestOneHopPacketPathZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	pool := NewPacketPool()
	a := NewHost(eng, 0, 100*Gbps, sim.Microsecond, 1)
	b := NewHost(eng, 1, 100*Gbps, sim.Microsecond, 1)
	Connect(a.NIC, b.NIC)
	b.Sink = func(pkt *Packet) {
		if pkt.Type == Data {
			ack := pool.Ack(pkt, 0, pkt.Seq+int64(pkt.Payload))
			pool.Put(pkt)
			b.Send(ack)
		}
	}
	acked := 0
	a.Sink = func(pkt *Packet) {
		acked++
		pool.Put(pkt)
	}
	seq := int64(0)
	send := func() {
		a.Send(pool.Data(1, 0, 1, 0, seq, 1000))
		seq += 1000
		eng.Run()
	}
	for i := 0; i < 64; i++ { // warm pools, queues, and the event free list
		send()
	}
	if avg := testing.AllocsPerRun(100, func() { send() }); avg != 0 {
		t.Errorf("one-hop packet path: %v allocs/op, want 0", avg)
	}
	// 64 warm-up sends + 101 from AllocsPerRun (it calls f once extra).
	if acked != 165 {
		t.Fatalf("acked %d packets, want 165", acked)
	}
}

func TestSerializeMultiGBNoOverflow(t *testing.T) {
	// 3 GiB at 1 Mb/s: the naive bits*Second product overflows int64; the
	// split path must stay exact (Mbps divides sim.Second evenly).
	bytes := 3 << 30
	got := Mbps.Serialize(bytes)
	if got <= 0 {
		t.Fatalf("Serialize(3GiB @ Mbps) = %v, overflowed", got)
	}
	want := sim.Time(int64(bytes) * 8 * (int64(sim.Second) / int64(Mbps)))
	if got != want {
		t.Errorf("Serialize(3GiB @ Mbps) = %v, want %v", got, want)
	}
	// Sanity in seconds: ~25770 s.
	if math.Abs(got.Seconds()-float64(bytes)*8/1e6) > 1e-6 {
		t.Errorf("Serialize(3GiB @ Mbps) = %v s, want %v s", got.Seconds(), float64(bytes)*8/1e6)
	}
	// Packet-sized inputs keep the exact fast path.
	if got := Gbps.Serialize(1000); got != 8*sim.Microsecond {
		t.Errorf("Serialize(1000B @ Gbps) = %v, want 8us", got)
	}
	if got := (100 * Gbps).Serialize(1); got != 80*sim.Picosecond {
		t.Errorf("Serialize(1B @ 100Gbps) = %v, want 80ps", got)
	}
}

// TestPacketPathZeroAllocFlightOn is the hooks-on twin of the test above:
// a data packet forwarded through a switch and its ACK forwarded back, with
// the configuration -audit and -trace-flows arm — a flight ring on every
// port, NIC and switch, the flow tracer chained into the switch emitter —
// and still no allocation. Every enqueue and dequeue lands in the ring.
func TestPacketPathZeroAllocFlightOn(t *testing.T) {
	eng := sim.NewEngine()
	pool := NewPacketPool()
	sw, hosts := star(eng, 2, 100*Gbps, sim.Microsecond, 2, lossyConfig())
	rec := obs.NewRecorder()
	rec.Flight = obs.NewFlightRecorder(4096) // holds every event below
	rec.FlowTrace = obs.NewFlowTracer(4)
	dev := rec.Devs.ID(sw.Name)
	sw.SetTrace(rec.SwitchEmitter(), dev)
	for _, p := range sw.Ports {
		p.SetTrace(rec.Emitter(), dev)
	}
	for _, h := range hosts {
		h.NIC.SetTrace(rec.Emitter(), rec.Devs.ID(h.DeviceName()))
	}
	a, b := hosts[0], hosts[1]
	b.Sink = func(pkt *Packet) {
		if pkt.Type == Data {
			ack := pool.Ack(pkt, 0, pkt.Seq+int64(pkt.Payload))
			pool.Put(pkt)
			b.Send(ack)
		}
	}
	a.Sink = func(pkt *Packet) { pool.Put(pkt) }
	seq := int64(0)
	send := func() {
		a.Send(pool.Data(1, 0, 1, 0, seq, 1000))
		seq += 1000
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		send()
	}
	before := len(rec.Flight.Events())
	if avg := testing.AllocsPerRun(100, send); avg != 0 {
		t.Errorf("forwarded packet with the flight ring on: %v allocs/op, want 0", avg)
	}
	// Data and ACK each cross two egress ports: 4 enqueues + 4 dequeues.
	if got := len(rec.Flight.Events()) - before; got != 101*8 {
		t.Errorf("ring recorded %d events over 101 round trips, want %d", got, 101*8)
	}
	evs := rec.Flight.Events()
	last := evs[len(evs)-1]
	if last.Kind != obs.Dequeue || rec.Devs.Name(last.Dev) != "host0" && rec.Devs.Name(last.Dev) != "sw" {
		t.Errorf("last ring event = %+v (dev %q), want a dequeue on the ACK's path", last, rec.Devs.Name(last.Dev))
	}
}

// TestTracedStructsNoLarger pins the size of the hot objects every run
// allocates, hooks on or off: every optional hook (tracer, digest, fault
// state, jitter, cost sampler) lives behind the object's one cold pointer,
// so a field added to Port, Switch or sim.Engine itself has to raise its
// pin here and say why.
func TestTracedStructsNoLarger(t *testing.T) {
	const portBytes, switchBytes, engineBytes = 240, 280, 25184 // amd64
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(Port{}); got > portBytes {
		t.Errorf("Port is %d bytes, pinned at %d", got, portBytes)
	}
	if got := unsafe.Sizeof(Switch{}); got > switchBytes {
		t.Errorf("Switch is %d bytes, pinned at %d", got, switchBytes)
	}
	if got := unsafe.Sizeof(sim.Engine{}); got > engineBytes {
		t.Errorf("sim.Engine is %d bytes, pinned at %d", got, engineBytes)
	}
}
