package netsim

// PacketPool is a per-engine free list of Packet objects. The engine is
// single-threaded, so the pool needs no locking; every simulated run owns
// exactly one pool, shared by all hosts, stacks, and switches of that run
// (internal/harness wires it), so a packet allocated at one host and
// retired at another returns to the same free list.
//
// Ownership rules (see also docs/ARCHITECTURE.md, "Hot path & memory
// discipline"):
//
//   - A packet belongs to exactly one owner at a time: the sender until
//     Host.Send, the network while in flight, and the receiving sink from
//     delivery on.
//   - The receiving sink must finish reading a packet before recycling it
//     with Put; anything that must outlive the packet (INT records echoed
//     on an ACK, CC feedback) is copied or handed off first.
//   - Ack transfers the data packet's INT records to the ACK by swapping
//     slices: after Ack returns, the data packet's INT field is a spare
//     backing array and must not be read.
//   - Dropped packets may simply be abandoned to the GC (Put is optional
//     for correctness, mandatory only for the zero-allocation guarantee).
//
// A nil *PacketPool is valid everywhere: constructors fall back to plain
// allocation and Put becomes a no-op, so pool-free code (tests, examples)
// keeps working unchanged.
//
// The `simdebug` build tag (go test -tags simdebug) turns on poison mode:
// Put stamps a generation counter and marks the object free, and the
// enqueue/receive paths panic on any use of a recycled packet, so pooling
// bugs surface as crashes in CI rather than as corrupted results.
type PacketPool struct {
	free []*Packet

	// Counters (not part of the simulation state).
	Gets int64 // packets handed out, recycled or fresh
	News int64 // fresh heap allocations (free list was empty)
	Puts int64 // packets returned

	liveBytes int64 // wire bytes of packets currently out of the pool

	// Conservation-audit gauges (see harness's -audit wiring). wire counts
	// packets posted for delivery and not yet received (in propagation);
	// ctrl counts PFC pause/resume frames in flight. Both are maintained by
	// Port regardless of whether an auditor is installed — two integer
	// adds per hop, cheaper than any conditional.
	wire int64
	ctrl int64
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// LivePackets returns the number of packets currently out of the pool (the
// run's in-flight population: queued, on the wire, or held by a stack).
func (p *PacketPool) LivePackets() int64 {
	if p == nil {
		return 0
	}
	return p.Gets - p.Puts
}

// LiveBytes returns the wire bytes of packets currently out of the pool.
// This is the gauge the obs watchdog monitors: an uncontrolled sender shows
// up here long before the process feels it as RSS.
func (p *PacketPool) LiveBytes() int64 {
	if p == nil {
		return 0
	}
	return p.liveBytes
}

// InPropagation returns the number of packets currently on a wire: posted
// for delivery by a port transmitter and not yet received by the peer.
func (p *PacketPool) InPropagation() int64 {
	if p == nil {
		return 0
	}
	return p.wire
}

// CtrlInFlight returns the number of PFC pause/resume frames currently in
// flight. The PFC-symmetry audit is only sound when this is zero (a pause
// on the wire makes sender and receiver state legitimately disagree).
func (p *PacketPool) CtrlInFlight() int64 {
	if p == nil {
		return 0
	}
	return p.ctrl
}

// get hands out a zeroed packet, recycled when possible. The INT backing
// array survives recycling (length 0, capacity preserved), so INT-stamping
// runs stop allocating once the arrays have grown.
func (p *PacketPool) get() *Packet {
	if p == nil {
		return &Packet{}
	}
	p.Gets++
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		pkt.inPool = false
		return pkt
	}
	p.News++
	return &Packet{}
}

// Put recycles a packet. The caller must be the packet's sole owner; using
// the pointer after Put is a use-after-free (caught by the simdebug
// build). Put on a nil pool is a no-op.
func (p *PacketPool) Put(pkt *Packet) {
	if p == nil || pkt == nil {
		return
	}
	if poolDebug && pkt.inPool {
		panic("netsim: packet double-freed (Put on an already-recycled packet)")
	}
	p.liveBytes -= int64(pkt.Wire)
	*pkt = Packet{INT: pkt.INT[:0], gen: pkt.gen + 1, inPool: true}
	p.free = append(p.free, pkt)
	p.Puts++
}

// checkLive panics in the simdebug build when a recycled packet re-enters
// the simulation. The release build compiles the check away.
func checkLive(pkt *Packet, where string) {
	if poolDebug && pkt != nil && pkt.inPool {
		panic("netsim: use-after-free: " + where + " called with a recycled packet")
	}
}

// Data returns a data packet of the given payload size.
func (p *PacketPool) Data(flow int64, src, dst, prio int, seq int64, payload int) *Packet {
	pkt := p.get()
	pkt.Type = Data
	pkt.FlowID = flow
	pkt.Src = src
	pkt.Dst = dst
	pkt.Prio = prio
	pkt.Seq = seq
	pkt.Payload = payload
	pkt.Wire = payload + HeaderBytes
	pkt.Hash = flowHash(flow)
	if p != nil {
		p.liveBytes += int64(pkt.Wire)
	}
	return pkt
}

// Ack returns an ACK for the given data packet, addressed back to its
// sender at priority ackPrio. On a real pool the data packet's INT records
// are handed off to the ACK (the data packet keeps a spare backing array
// and must not have its INT read afterwards — it is about to be recycled);
// on a nil pool they are copied, leaving the data packet untouched.
func (p *PacketPool) Ack(data *Packet, ackPrio int, cum int64) *Packet {
	checkLive(data, "PacketPool.Ack")
	ack := p.get()
	if p != nil {
		ack.INT, data.INT = data.INT, ack.INT[:0]
	} else if len(data.INT) > 0 {
		ack.INT = append(ack.INT, data.INT...)
	}
	ack.Type = Ack
	ack.FlowID = data.FlowID
	ack.Src = data.Dst
	ack.Dst = data.Src
	ack.Prio = ackPrio
	ack.Seq = data.Seq
	ack.AckSeq = cum
	ack.Wire = AckBytes
	ack.SentAt = data.SentAt // echo the sender's hardware timestamp
	ack.CE = data.CE
	ack.Traced = data.Traced // journey stamps ride the INT records above
	ack.Hash = flowHash(data.FlowID) ^ 0x9e3779b9
	if p != nil {
		p.liveBytes += int64(ack.Wire)
	}
	return ack
}

// Probe returns a minimal probe packet used by PrioPlus to sample the path
// delay while transmission is suspended.
func (p *PacketPool) Probe(flow int64, src, dst, prio int) *Packet {
	pkt := p.get()
	pkt.Type = Probe
	pkt.FlowID = flow
	pkt.Src = src
	pkt.Dst = dst
	pkt.Prio = prio
	pkt.Wire = AckBytes
	pkt.Hash = flowHash(flow)
	if p != nil {
		p.liveBytes += int64(pkt.Wire)
	}
	return pkt
}

// ProbeAck returns the echo of a probe. Like Ack, it carries the probe's
// piggybacked records home: traced probes accumulate journey stamps on the
// forward path, and PrioPlus reads the probed delay at the sender. On a
// real pool the slices are swapped (the probe is about to be recycled); on
// a nil pool they are copied.
func (p *PacketPool) ProbeAck(probe *Packet, ackPrio int) *Packet {
	checkLive(probe, "PacketPool.ProbeAck")
	pkt := p.get()
	if p != nil {
		pkt.INT, probe.INT = probe.INT, pkt.INT[:0]
	} else if len(probe.INT) > 0 {
		pkt.INT = append(pkt.INT, probe.INT...)
	}
	pkt.Traced = probe.Traced
	pkt.Type = ProbeAck
	pkt.FlowID = probe.FlowID
	pkt.Src = probe.Dst
	pkt.Dst = probe.Src
	pkt.Prio = ackPrio
	pkt.Wire = AckBytes
	pkt.SentAt = probe.SentAt
	pkt.Hash = flowHash(probe.FlowID) ^ 0x9e3779b9
	if p != nil {
		p.liveBytes += int64(pkt.Wire)
	}
	return pkt
}
