// Package netsim models a packet-switched data-center network: hosts,
// links, and switches with multi-queue ports, shared buffers with dynamic
// thresholds, per-priority PFC flow control, ECN marking, and optional INT
// telemetry. It is the substrate on which the congestion-control algorithms
// in internal/cc and internal/core are evaluated, standing in for the ns-3
// simulator used by the PrioPlus paper.
package netsim

import (
	"prioplus/internal/sim"
)

// Rate is a link speed in bits per second.
type Rate int64

// Gbps is one gigabit per second.
const Gbps Rate = 1e9

// Serialize returns the time to put the given number of bytes on the wire.
func (r Rate) Serialize(bytes int) sim.Time {
	bits := int64(bytes) * 8
	if bits <= (1<<63-1)/int64(sim.Second) {
		// Every packet-sized input takes this exact path.
		return sim.Time(bits * int64(sim.Second) / int64(r))
	}
	// Multi-gigabyte inputs (whole-flow transfer times) would overflow
	// bits*Second; split out the whole picoseconds-per-bit first. All
	// standard rates divide sim.Second evenly, so rem is normally zero and
	// the result stays exact.
	q := int64(sim.Second) / int64(r)
	rem := int64(sim.Second) % int64(r)
	t := bits * q
	if rem != 0 {
		t += int64(float64(bits) * float64(rem) / float64(r))
	}
	return sim.Time(t)
}

// BytesPerSec returns the rate in bytes per second.
func (r Rate) BytesPerSec() float64 { return float64(r) / 8 }

// BDP returns the bandwidth-delay product in bytes for a round-trip time.
func (r Rate) BDP(rtt sim.Time) float64 {
	return float64(r) / 8 * rtt.Seconds()
}

// PacketType distinguishes the packet kinds the simulator forwards.
type PacketType uint8

// Packet kinds.
const (
	Data PacketType = iota
	Ack
	Probe
	ProbeAck
)

// String returns the packet type's short name (data, ack, probe, probe-ack).
func (t PacketType) String() string {
	switch t {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Probe:
		return "probe"
	case ProbeAck:
		return "probeack"
	}
	return "unknown"
}

// Standard sizes, following the paper's setup (1 KB MTU, per-packet ACKs).
const (
	DefaultMTU  = 1000 // application payload bytes per full data packet
	HeaderBytes = 48   // L2..L4 header overhead on data packets
	AckBytes    = 64   // ACK and probe wire size

	// wireFull is the wire size of a full-MTU data packet — with AckBytes,
	// one of the two sizes whose serialization time every port precomputes.
	wireFull = DefaultMTU + HeaderBytes
)

// INTRecord is one hop's in-band network telemetry, stamped at dequeue by
// switches with INT enabled. HPCC uses it to compute per-link utilization.
// Flow tracing reuses the same piggyback array for journey stamps on traced
// packets; those records carry a non-empty Dev (plus the queue wait) and are
// filtered out before HPCC sees the feedback, so INT-proper semantics are
// unchanged.
type INTRecord struct {
	QLen    int      // egress queue length after this packet left, bytes
	TxBytes int64    // cumulative bytes transmitted by the egress port
	TS      sim.Time // dequeue timestamp
	Rate    Rate     // egress link rate
	Dev     string   // trace-only: stamping device name ("" for INT proper)
	QWait   sim.Time // trace-only: time spent in the egress queue
}

// Packet is a simulated packet. One Packet object travels hop by hop;
// switches never copy it. Packets are normally drawn from a PacketPool and
// recycled at the end of their life (see pool.go for the ownership rules);
// the New* constructors below allocate pool-free packets for tests and
// direct netsim use.
// Field order is deliberate: the fields every hop touches — Type, the
// ECN/trace flags, VPrio, Hash, Dst, Prio, Wire — pack into the first
// cache line (offsets 0..40 with FlowID and Seq rounding it out), so a
// switch hop's route lookup, ECMP hash, admission, and enqueue read one
// line instead of three. Endpoint-only and pool-bookkeeping fields follow.
type Packet struct {
	Type PacketType
	ECT  bool // ECN-capable transport
	CE   bool // congestion experienced mark
	// Traced marks a packet whose hop journey is being recorded by an
	// obs.FlowTracer: every egress port appends a trace INTRecord (Dev set)
	// at dequeue. Set by the transport on a sampled subset of a traced
	// flow's packets; false everywhere else, costing one branch per hop.
	Traced bool
	// VPrio is the flow's virtual priority, carried in the header (as a
	// DSCP-like tag) but not used for queueing. The ECN-based PrioPlus
	// extension (Appendix B) marks by VPrio within one physical queue.
	VPrio  int16
	Hash   uint32
	Dst    int // destination host ID
	Prio   int // physical priority queue index; larger = higher priority
	Wire   int // total bytes on the wire
	FlowID int64
	Seq    int64

	Src     int   // source host ID
	AckSeq  int64 // cumulative bytes received, on ACKs
	Payload int   // application payload bytes (data packets)
	SentAt  sim.Time
	INT     []INTRecord

	// hopEnqAt is the enqueue timestamp at the current hop, consumed at
	// dequeue to compute the trace records' QWait. Only maintained for
	// Traced packets.
	hopEnqAt sim.Time

	// Pool bookkeeping: gen counts recycles (stamped at every Put) and
	// inPool marks packets currently on a free list, so the simdebug build
	// can panic on use-after-free instead of corrupting results.
	gen    uint32
	inPool bool
}

// flowHash is a 64-to-32-bit mix used for ECMP path selection, so that a
// flow's packets always take the same path.
func flowHash(flow int64) uint32 {
	x := uint64(flow)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return uint32(x)
}
