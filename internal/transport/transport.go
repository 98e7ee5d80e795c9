// Package transport implements the end-host transport the congestion
// controllers drive: per-flow window/pacing-based senders with per-packet
// ACKs, RTT measurement with injectable noise, PrioPlus probe support,
// retransmission timeouts, and IRN-style selective loss recovery for the
// lossy experiments.
package transport

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"prioplus/internal/cc"
	"prioplus/internal/netsim"
	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// Stack is the per-host transport: it owns every sending and receiving
// flow terminating at its host and is installed as the host's packet sink.
type Stack struct {
	Eng  *sim.Engine
	Host *netsim.Host

	// AckPrio is the physical priority for ACKs. The paper's default is
	// the highest queue (reverse congestion avoidance, §4.4); set
	// AckPrioData to use the data packet's own priority (PrioPlus*).
	AckPrio     int
	AckPrioData bool

	// Noise, when non-nil, returns an additive delay-measurement noise
	// sample applied to every RTT measurement at this host.
	Noise func() sim.Time

	// OnFlowDone, when non-nil, is called with a summary of every flow
	// this stack completes, just before the flow's own OnComplete. It is
	// the transport's observability hook (harness.Net.Observe wires it to
	// an obs.Recorder); nil costs one branch per flow completion.
	OnFlowDone func(FlowStats)

	// RTTHist, when non-nil, records every sender-side data-ACK RTT sample
	// in nanoseconds (after Noise — the same value the CC sees). DelayHist
	// records the receiver-side one-way fabric delay of every delivered
	// data packet (SentAt to delivery, no noise) in nanoseconds. Installed
	// by harness.Net.Observe; nil costs one branch per sample.
	RTTHist   *obs.Histogram
	DelayHist *obs.Histogram

	// FlowTrace, when non-nil, samples flows for causal tracing: admitted
	// senders mark a stride of their packets Traced (hop journeys), record
	// transport events (acks, retransmissions, RTOs, delivery), and expose
	// the audit sink their congestion controller logs decisions to.
	// Installed on every stack of a run by harness.Net.Observe; nil costs
	// one branch per flow start.
	FlowTrace *obs.FlowTracer

	// Pool, when non-nil, is the run-wide packet pool: all packets this
	// stack emits are drawn from it and every packet it terminates
	// (delivered data once its ACK is built, ACKs and probe-acks once the
	// CC hook returns) is recycled into it. Install the same pool on every
	// stack of a run (internal/harness does); nil keeps the pool-free
	// allocate-and-GC behavior.
	Pool *netsim.PacketPool

	senders map[int64]*Sender
	recvs   map[int64]*recvState
	segfree []*segment // recycled segment records, shared by this host's flows

	// One-entry caches in front of the flow maps: consecutive packets
	// overwhelmingly belong to the same flow, so the per-packet lookup is
	// a pointer compare instead of a map hash. lastSender is invalidated
	// when its flow completes (the map entry is deleted there, and flow
	// IDs may be reused by a later flow); recvState entries are never
	// deleted, so lastRecv needs no invalidation.
	lastSender   *Sender
	lastSenderID int64
	lastRecv     *recvState
	lastRecvID   int64
}

// senderFor resolves the sending flow for an ACK, through the one-entry
// cache. Returns nil for unknown (completed) flows, like the map did.
func (st *Stack) senderFor(id int64) *Sender {
	if st.lastSender != nil && st.lastSenderID == id {
		return st.lastSender
	}
	s := st.senders[id]
	if s != nil {
		st.lastSender, st.lastSenderID = s, id
	}
	return s
}

// getSeg returns a zeroed segment, recycled when possible.
func (st *Stack) getSeg() *segment {
	if n := len(st.segfree); n > 0 {
		seg := st.segfree[n-1]
		st.segfree[n-1] = nil
		st.segfree = st.segfree[:n-1]
		return seg
	}
	return &segment{}
}

// putSeg recycles an acknowledged segment record.
func (st *Stack) putSeg(seg *segment) {
	*seg = segment{}
	st.segfree = append(st.segfree, seg)
}

// FlowStats summarizes a completed flow for observability: identity,
// completion time, and the loss-recovery counters accumulated while it ran.
type FlowStats struct {
	ID          int64
	Dst         int
	Size        int64
	FCT         sim.Time
	Retransmits int64
	RTOs        int64
	ProbesSent  int64
}

// NewStack creates a transport stack bound to host h and installs it as
// the host's sink. ACKs default to the highest priority queue.
func NewStack(eng *sim.Engine, h *netsim.Host) *Stack {
	st := &Stack{
		Eng:     eng,
		Host:    h,
		AckPrio: h.NIC.NumQueues() - 1,
		senders: make(map[int64]*Sender),
		recvs:   make(map[int64]*recvState),
	}
	h.Sink = st.handle
	return st
}

type recvState struct {
	cum int64
	ooo map[int64]int

	flog     *obs.FlowLog // receiver side of a traced flow (nil when unsampled)
	flogInit bool         // flog lookup performed
}

func (st *Stack) handle(pkt *netsim.Packet) {
	switch pkt.Type {
	case netsim.Data:
		st.onData(pkt) // recycles pkt once the ACK is built
	case netsim.Ack:
		if s := st.senderFor(pkt.FlowID); s != nil {
			s.onAck(pkt)
		}
		st.Pool.Put(pkt)
	case netsim.Probe:
		prio := st.AckPrio
		if st.AckPrioData {
			prio = pkt.Prio
		}
		st.Host.Send(st.Pool.ProbeAck(pkt, prio))
		st.Pool.Put(pkt)
	case netsim.ProbeAck:
		if s := st.senderFor(pkt.FlowID); s != nil {
			s.onProbeAck(pkt)
		}
		st.Pool.Put(pkt)
	}
}

func (st *Stack) onData(pkt *netsim.Packet) {
	r := st.lastRecv
	if r == nil || st.lastRecvID != pkt.FlowID {
		var ok bool
		r, ok = st.recvs[pkt.FlowID]
		if !ok {
			r = &recvState{}
			st.recvs[pkt.FlowID] = r
		}
		st.lastRecv, st.lastRecvID = r, pkt.FlowID
	}
	switch {
	case pkt.Seq == r.cum:
		r.cum += int64(pkt.Payload)
		for {
			n, ok := r.ooo[r.cum]
			if !ok {
				break
			}
			delete(r.ooo, r.cum)
			r.cum += int64(n)
		}
	case pkt.Seq > r.cum:
		if r.ooo == nil {
			r.ooo = make(map[int64]int)
		}
		r.ooo[pkt.Seq] = pkt.Payload
	}
	prio := st.AckPrio
	if st.AckPrioData {
		prio = pkt.Prio
	}
	if st.DelayHist != nil {
		st.DelayHist.Observe(int64((st.Eng.Now() - pkt.SentAt) / sim.Nanosecond))
	}
	if pkt.Traced && st.FlowTrace != nil {
		if !r.flogInit {
			r.flogInit = true
			r.flog = st.FlowTrace.Log(pkt.FlowID)
		}
		if r.flog != nil {
			r.flog.Add(obs.Span{
				T: st.Eng.Now(), Kind: obs.SpanDeliver, Seq: pkt.Seq,
				Delay: st.Eng.Now() - pkt.SentAt,
			})
		}
	}
	// The ACK takes ownership of the data packet's INT records; the data
	// packet itself is done and goes back to the pool.
	st.Host.Send(st.Pool.Ack(pkt, prio, r.cum))
	st.Pool.Put(pkt)
}

// measureRTT converts an echoed send timestamp into a (noisy) RTT sample.
func (st *Stack) measureRTT(sentAt sim.Time) sim.Time {
	rtt := st.Eng.Now() - sentAt
	if st.Noise != nil {
		rtt += st.Noise()
	}
	return rtt
}

// FlowSpec describes one sender-side flow.
type FlowSpec struct {
	ID      int64
	Dst     int
	Size    int64 // bytes; must be > 0
	Prio    int   // physical priority for data packets
	VPrio   int16 // virtual priority carried in the header (DSCP-like)
	MTU     int   // payload bytes per packet (0 = netsim.DefaultMTU)
	BaseRTT sim.Time
	Algo    cc.Algorithm
	// OnComplete fires when the last byte is cumulatively acknowledged.
	OnComplete func(fct sim.Time)
	// Rand seeds the flow's private randomness (probe jitter). Required.
	Rand *rand.Rand
	// RTOMin bounds the retransmission timer (0 = 100 us).
	RTOMin sim.Time
	// Paced spreads the whole window across the RTT instead of sending
	// ack-clocked bursts (sub-MTU windows are always paced).
	Paced bool
	// MinRateGap caps the pacing gap, implementing the minimum send rate
	// CCs keep so congestion signals arrive periodically (§3.3: 100 Mb/s,
	// one full packet every ~80 us). 0 uses the default; negative
	// disables the floor.
	MinRateGap sim.Time
}

// Sender is the sending half of one flow. It implements cc.Driver.
type Sender struct {
	st   *Stack
	spec FlowSpec
	mtu  int

	started  bool
	finished bool
	stopped  bool // CC-requested suspension (PrioPlus yield)

	sndNxt      int64
	sndUna      int64
	unacked     segTable // sent and not yet acknowledged, by segment start
	minOut      int64    // lower bound on the smallest unacked seq
	lossScanned int64    // high-water mark of the loss-detection walk
	retxq       []int64  // sequences to retransmit, FIFO
	inflight    int

	srtt        sim.Time
	nextPacedAt sim.Time

	paceEv      *sim.Event
	rtoEv       *sim.Event
	rtoDeadline sim.Time
	probeEv     *sim.Event

	startAt sim.Time

	// Flow tracing (nil flog for unsampled flows; see Stack.FlowTrace).
	flog       *obs.FlowLog
	pktCount   int64 // data packets emitted, for the journey stride
	traceEvery int64 // journey sampling stride (every Nth data packet)

	// Counters.
	Retransmits int64
	RTOs        int64
	ProbesSent  int64
}

// NewFlow registers a sender-side flow on the stack. Call Start to begin.
func (st *Stack) NewFlow(spec FlowSpec) *Sender {
	if spec.Size <= 0 {
		panic("transport: flow size must be positive")
	}
	if spec.MTU == 0 {
		spec.MTU = netsim.DefaultMTU
	}
	if spec.Rand == nil {
		panic("transport: FlowSpec.Rand is required for determinism")
	}
	if spec.RTOMin == 0 {
		spec.RTOMin = 100 * sim.Microsecond
	}
	if spec.MinRateGap == 0 {
		spec.MinRateGap = 80 * sim.Microsecond
	}
	if _, dup := st.senders[spec.ID]; dup {
		panic(fmt.Sprintf("transport: duplicate flow id %d", spec.ID))
	}
	s := &Sender{
		st:   st,
		spec: spec,
		mtu:  spec.MTU,
	}
	s.unacked.init(int64(s.mtu))
	st.senders[spec.ID] = s
	return s
}

// Start begins transmission (or probing, if the CC asks for it).
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.startAt = s.st.Eng.Now()
	if s.st.FlowTrace != nil {
		// Admit before Algo.Start so the controller's start decision (and
		// PrioPlus's probe-first choice) lands on the timeline.
		s.flog = s.st.FlowTrace.Admit(s.spec.ID)
		s.traceEvery = s.st.FlowTrace.JourneyStride()
	}
	s.spec.Algo.Start(s)
	if !s.stopped {
		s.trySend()
	}
	s.armRTO()
}

// --- cc.Driver implementation ---

// Now implements cc.Driver.
func (s *Sender) Now() sim.Time { return s.st.Eng.Now() }

// BaseRTT implements cc.Driver.
func (s *Sender) BaseRTT() sim.Time { return s.spec.BaseRTT }

// LineRate implements cc.Driver.
func (s *Sender) LineRate() netsim.Rate { return s.st.Host.LineRate() }

// MTU implements cc.Driver.
func (s *Sender) MTU() int { return s.mtu }

// SndNxt implements cc.Driver.
func (s *Sender) SndNxt() int64 { return s.sndNxt }

// RemainingBytes implements cc.Driver.
func (s *Sender) RemainingBytes() int64 { return s.spec.Size - s.sndUna }

// StopSending implements cc.Driver: suspend data transmission.
func (s *Sender) StopSending() {
	s.stopped = true
	if s.paceEv != nil {
		s.st.Eng.Cancel(s.paceEv)
		s.paceEv = nil
	}
}

// ResumeSending implements cc.Driver.
func (s *Sender) ResumeSending() {
	if s.finished {
		return
	}
	s.stopped = false
	s.nextPacedAt = 0
	s.armRTO()
	s.trySend()
}

// SendProbeAfter implements cc.Driver: schedule a probe packet.
func (s *Sender) SendProbeAfter(d sim.Time) {
	if s.finished {
		return
	}
	if s.probeEv != nil {
		s.st.Eng.Cancel(s.probeEv)
	}
	s.probeEv = s.st.Eng.Post2(d, fireProbe, s, nil)
}

// fireProbe, firePace and fireRTO are the Post2 targets of the sender's three
// timers: a is the *Sender. Each drops its handle first (sim.Event ownership).
func fireProbe(a, _ any) {
	s := a.(*Sender)
	s.probeEv = nil
	s.sendProbe()
}

func firePace(a, _ any) {
	s := a.(*Sender)
	s.paceEv = nil
	s.trySend()
}

func fireRTO(a, _ any) { a.(*Sender).onRTO() }

// ResetRTO implements cc.Driver.
func (s *Sender) ResetRTO() { s.armRTO() }

// Rand implements cc.Driver.
func (s *Sender) Rand() *rand.Rand { return s.spec.Rand }

// DecisionLog exposes the flow's audit sink to cc.DecisionLoggerOf: nil
// unless the flow was sampled by the run's FlowTracer, so controllers of
// untraced flows skip auditing with one nil check at Start.
func (s *Sender) DecisionLog() cc.DecisionLogger {
	if s.flog == nil {
		return nil
	}
	return s
}

// LogDecision implements cc.DecisionLogger: one span on the flow's
// timeline, stamped with the current simulated time.
func (s *Sender) LogDecision(kind obs.SpanKind, delay sim.Time, a, b float64) {
	s.flog.Add(obs.Span{T: s.st.Eng.Now(), Kind: kind, Delay: delay, A: a, B: b})
}

// --- sending machinery ---

func (s *Sender) sendProbe() {
	if s.finished {
		return
	}
	pkt := s.st.Pool.Probe(s.spec.ID, s.st.Host.ID, s.spec.Dst, s.spec.Prio)
	pkt.SentAt = s.st.Eng.Now()
	if s.flog != nil {
		pkt.Traced = true // probes are always journey-traced (they are sparse)
	}
	s.ProbesSent++
	s.st.Host.Send(pkt)
	s.armRTO()
}

// segment tracks one sent-but-unacknowledged payload. counted reports
// whether its bytes are currently included in the inflight total; a
// segment declared lost is uncounted until retransmitted.
type segment struct {
	seq     int64 // segment start, the segTable validation key
	length  int
	counted bool
	queued  bool // pending in the retransmit queue
}

// segTable maps MTU-strided segment starts to in-flight segment records,
// replacing the former map[int64]*segment on the per-ACK hot path (the
// map's hashing dominated ACK processing). Slot selection is
// (seq/mtu) & mask; because live starts are distinct multiples of the MTU
// spanning at most the largest window the flow has reached, the table
// stays collision-free once it covers that span — put grows it the first
// time two live segments would share a slot. Every record stores its own
// seq and lookups validate it, so an ACK for a long-retired sequence
// misses exactly like the map did.
//
// The seq/mtu divide is a multiply by the fixed-point reciprocal
// magic = ceil(2^64/mtu): with e = magic*mtu - 2^64 in [0, mtu), the
// error term seq*e/(mtu*2^64) stays below 1/mtu for every seq < 2^64/mtu,
// so hi64(seq*magic) == seq/mtu exactly for all sequence numbers below
// 2^64/mtu >= 2^50 bytes — far past any representable flow.
type segTable struct {
	slots  []*segment
	mask   int64
	n      int
	stride int64  // the flow's MTU; segment starts are multiples of it
	magic  uint64 // ceil(2^64/stride)
}

func (t *segTable) init(stride int64) {
	t.stride = stride
	t.magic = ^uint64(0)/uint64(stride) + 1
}

func (t *segTable) idx(seq int64) int64 {
	hi, _ := bits.Mul64(uint64(seq), t.magic)
	return int64(hi)
}

func (t *segTable) get(seq int64) *segment {
	if t.n == 0 {
		return nil
	}
	if seg := t.slots[t.idx(seq)&t.mask]; seg != nil && seg.seq == seq {
		return seg
	}
	return nil
}

func (t *segTable) put(seq int64, seg *segment) {
	if t.slots == nil {
		t.growTo(64)
	}
	for t.slots[t.idx(seq)&t.mask] != nil {
		// A live segment already sits here: the window outgrew the table.
		t.growTo(2 * len(t.slots))
	}
	t.slots[t.idx(seq)&t.mask] = seg
	t.n++
}

func (t *segTable) del(seq int64) {
	i := t.idx(seq) & t.mask
	if t.slots[i] != nil && t.slots[i].seq == seq {
		t.slots[i] = nil
		t.n--
	}
}

// growTo rehashes into a table of the given power-of-two size. Live
// indexes are distinct and span less than the new size, so reinsertion
// cannot collide.
func (t *segTable) growTo(size int) {
	old := t.slots
	t.slots = make([]*segment, size)
	t.mask = int64(size - 1)
	for _, seg := range old {
		if seg != nil {
			t.slots[t.idx(seg.seq)&t.mask] = seg
		}
	}
}

// nextSeq returns the next payload to transmit: retransmissions first,
// then new data. ok is false when nothing is pending.
func (s *Sender) nextSeq() (seq int64, length int, retx, ok bool) {
	for len(s.retxq) > 0 {
		seq = s.retxq[0]
		if seg := s.unacked.get(seq); seg != nil {
			return seq, seg.length, true, true
		}
		s.retxq = s.retxq[1:] // already acked meanwhile
	}
	if s.sndNxt < s.spec.Size {
		length = s.mtu
		if rest := s.spec.Size - s.sndNxt; rest < int64(length) {
			length = int(rest)
		}
		return s.sndNxt, length, false, true
	}
	return 0, 0, false, false
}

func (s *Sender) trySend() {
	if s.finished || s.stopped || !s.started {
		return
	}
	cwnd := s.spec.Algo.CwndBytes()
	for {
		seq, length, retx, ok := s.nextSeq()
		if !ok {
			return
		}
		if float64(s.inflight) >= cwnd {
			return
		}
		// Sub-packet windows are paced at cwnd/RTT; Paced flows always.
		if cwnd < float64(s.mtu) || s.spec.Paced {
			now := s.st.Eng.Now()
			if now < s.nextPacedAt {
				s.schedulePace(s.nextPacedAt - now)
				return
			}
			rtt := s.srtt
			if rtt == 0 {
				rtt = s.spec.BaseRTT
			}
			gap := sim.Time(float64(rtt) * float64(s.mtu) / math.Max(cwnd, 1))
			if s.spec.MinRateGap > 0 && gap > s.spec.MinRateGap {
				gap = s.spec.MinRateGap
			}
			s.nextPacedAt = now + gap
		}
		s.emit(seq, length, retx)
	}
}

func (s *Sender) schedulePace(d sim.Time) {
	if s.paceEv != nil {
		return
	}
	s.paceEv = s.st.Eng.Post2(d, firePace, s, nil)
}

func (s *Sender) emit(seq int64, length int, retx bool) {
	if retx {
		s.retxq = s.retxq[1:]
		s.Retransmits++
		if seg := s.unacked.get(seq); seg != nil {
			seg.queued = false
			if !seg.counted {
				seg.counted = true
				s.inflight += seg.length
			}
		}
	} else {
		seg := s.st.getSeg()
		seg.seq = seq
		seg.length = length
		seg.counted = true
		s.unacked.put(seq, seg)
		s.sndNxt = seq + int64(length)
		s.inflight += length
	}
	pkt := s.st.Pool.Data(s.spec.ID, s.st.Host.ID, s.spec.Dst, s.spec.Prio, seq, length)
	pkt.VPrio = s.spec.VPrio
	pkt.ECT = s.spec.Algo.WantsECT()
	pkt.SentAt = s.st.Eng.Now()
	if s.flog != nil {
		s.pktCount++
		if s.traceEvery <= 1 || s.pktCount%s.traceEvery == 0 {
			pkt.Traced = true
		}
		if retx {
			// Retransmissions always make the timeline, traced or not.
			s.flog.Add(obs.Span{T: pkt.SentAt, Kind: obs.SpanRetx, Seq: seq, A: float64(length)})
		}
	}
	s.st.Host.Send(pkt)
	s.armRTO()
}

// armRTO pushes the retransmission deadline forward. The timer is lazy:
// the pending event is never rescheduled (a cancel and a re-post per packet
// would dominate the simulator); when it fires early it re-arms itself at
// the current deadline.
func (s *Sender) armRTO() {
	if s.finished {
		return
	}
	rto := 4 * s.srtt
	if rto < s.spec.RTOMin {
		rto = s.spec.RTOMin
	}
	s.rtoDeadline = s.st.Eng.Now() + rto
	if s.rtoEv == nil {
		s.rtoEv = s.st.Eng.Post2(rto, fireRTO, s, nil).Tag(sim.EKRTO)
	}
}

func (s *Sender) onRTO() {
	s.rtoEv = nil
	if s.finished {
		return
	}
	if now := s.st.Eng.Now(); now < s.rtoDeadline {
		// The deadline moved while this event was pending: re-arm.
		s.rtoEv = s.st.Eng.Post2(s.rtoDeadline-now, fireRTO, s, nil).Tag(sim.EKRTO)
		return
	}
	s.RTOs++
	if s.flog != nil {
		s.flog.Add(obs.Span{T: s.st.Eng.Now(), Kind: obs.SpanRTO, A: float64(s.inflight)})
	}
	s.spec.Algo.OnRTO()
	if s.stopped {
		// A probe (or its ACK) was lost: retry immediately.
		if s.probeEv == nil {
			s.sendProbe()
		} else {
			s.armRTO()
		}
		return
	}
	// An RTO means the ACK clock is dead: everything outstanding is
	// presumed lost. Uncount and re-queue it all (in order) so the
	// collapsed window can admit the retransmissions, and reset the
	// loss-scan mark so future gap detection can rediscover this region.
	s.advanceMin()
	s.lossScanned = s.minOut
	for seq := s.minOut; seq < s.sndNxt; seq += int64(s.mtu) {
		if s.unacked.get(seq) != nil {
			s.queueRetx(seq)
		}
	}
	s.armRTO()
	s.trySend()
}

// queueRetx declares a segment lost: its bytes leave the inflight total so
// the window admits the retransmission.
func (s *Sender) queueRetx(seq int64) {
	seg := s.unacked.get(seq)
	if seg == nil || seg.queued {
		return
	}
	seg.queued = true
	if seg.counted {
		seg.counted = false
		s.inflight -= seg.length
	}
	s.retxq = append(s.retxq, seq)
}

// advanceMin moves the minimum-outstanding cursor past acknowledged
// sequences. Segment starts are multiples of the MTU, so the walk is exact
// and, being monotone, amortized O(1) per acknowledgment.
func (s *Sender) advanceMin() {
	for s.minOut < s.sndNxt {
		if s.unacked.get(s.minOut) != nil {
			return
		}
		s.minOut += int64(s.mtu)
	}
}

func (s *Sender) updateSRTT(rtt sim.Time) {
	if s.srtt == 0 {
		s.srtt = rtt
	} else {
		s.srtt = (7*s.srtt + rtt) / 8
	}
}

func (s *Sender) onAck(pkt *netsim.Packet) {
	if s.finished {
		return
	}
	rtt := s.st.measureRTT(pkt.SentAt)
	s.updateSRTT(rtt)
	if s.st.RTTHist != nil {
		s.st.RTTHist.Observe(int64(rtt / sim.Nanosecond))
	}

	newly := 0
	if seg := s.unacked.get(pkt.Seq); seg != nil {
		s.unacked.del(pkt.Seq)
		if seg.counted {
			s.inflight -= seg.length
		}
		newly += seg.length
		s.st.putSeg(seg)
	}
	if pkt.AckSeq > s.sndUna {
		// Cumulative advance: clear anything below it. Segment starts are
		// MTU-strided, so walking the cursor is amortized O(1) per ACK.
		for seq := s.minOut; seq < pkt.AckSeq; seq += int64(s.mtu) {
			seg := s.unacked.get(seq)
			if seg == nil {
				continue
			}
			s.unacked.del(seq)
			if seg.counted {
				s.inflight -= seg.length
			}
			newly += seg.length
			s.st.putSeg(seg)
		}
		s.sndUna = pkt.AckSeq
		if s.minOut < pkt.AckSeq {
			s.minOut = pkt.AckSeq
		}
	}
	s.advanceMin()

	// IRN-style selective repeat: an ACK for byte Seq with a cumulative
	// ACK below it means the receiver has holes. Any still-unacked segment
	// reordered past by at least three segments is declared lost and
	// retransmitted. The stride walk only runs while the receiver reports
	// a hole, so lossless runs never pay for it.
	if pkt.Seq > pkt.AckSeq && pkt.Seq-pkt.AckSeq >= int64(3*s.mtu) {
		threshold := pkt.Seq - int64(3*s.mtu)
		seq := max(s.minOut, s.lossScanned)
		for ; seq <= threshold; seq += int64(s.mtu) {
			if s.unacked.get(seq) != nil {
				s.queueRetx(seq)
			}
		}
		if seq > s.lossScanned {
			// Each region is walked once; re-lost retransmissions within
			// it are recovered by the RTO.
			s.lossScanned = seq
		}
	}

	traced := s.flog != nil && pkt.Traced
	if traced {
		// Pull the hop journey off the piggyback array and strip the trace
		// records before the CC sees the feedback: HPCC's utilization
		// computation requires fb.INT to hold INT-proper records only.
		s.recordJourney(pkt)
	}
	fb := cc.Feedback{
		Now:        s.st.Eng.Now(),
		Delay:      rtt,
		CE:         pkt.CE,
		AckedBytes: newly,
		Seq:        pkt.Seq,
		CumAck:     pkt.AckSeq,
		INT:        pkt.INT,
	}
	s.spec.Algo.OnAck(fb)
	if traced {
		// Post-decision window: together with the decision audit this gives
		// the sampled "sensed delay -> decision -> rate" timeline for every
		// controller, with no per-algorithm per-ACK hooks.
		s.flog.Add(obs.Span{
			T: fb.Now, Kind: obs.SpanAcked, Seq: pkt.Seq, Delay: rtt,
			A: s.spec.Algo.CwndBytes(), B: float64(s.inflight),
		})
	}

	if s.sndUna >= s.spec.Size {
		s.complete()
		return
	}
	s.armRTO()
	s.trySend()
}

// recordJourney converts the trace records a traced packet accumulated at
// each egress hop into SpanHop entries, filtering them out of pkt.INT in
// place (trace records have Dev set, INT-proper records do not).
func (s *Sender) recordJourney(pkt *netsim.Packet) {
	kept := pkt.INT[:0]
	for _, r := range pkt.INT {
		if r.Dev == "" {
			kept = append(kept, r)
			continue
		}
		s.flog.Add(obs.Span{
			T: r.TS, Kind: obs.SpanHop, Seq: pkt.Seq,
			Delay: r.QWait, Dev: r.Dev, A: float64(r.QLen),
		})
	}
	pkt.INT = kept
}

func (s *Sender) onProbeAck(pkt *netsim.Packet) {
	if s.finished {
		return
	}
	rtt := s.st.measureRTT(pkt.SentAt)
	if s.stopped {
		// A probe after an idle period restarts the RTT estimate: the
		// smoothed value predates the yield and would mis-pace the
		// resumed window (Karn-style restart).
		s.srtt = rtt
	} else {
		s.updateSRTT(rtt)
	}
	traced := s.flog != nil && pkt.Traced
	if traced {
		// The probe-ack carries the probe's forward-path journey (the pool
		// constructor hands the piggyback array across).
		s.recordJourney(pkt)
	}
	fb := cc.Feedback{
		Now:    s.st.Eng.Now(),
		Delay:  rtt,
		Seq:    pkt.Seq,
		CumAck: s.sndUna,
	}
	s.spec.Algo.OnProbeAck(fb)
	if traced {
		s.flog.Add(obs.Span{
			T: fb.Now, Kind: obs.SpanProbeAcked, Delay: rtt,
			A: s.spec.Algo.CwndBytes(),
		})
	}
	if !s.stopped && !s.finished {
		s.trySend()
	}
}

func (s *Sender) complete() {
	s.finished = true
	for _, ev := range []*sim.Event{s.paceEv, s.rtoEv, s.probeEv} {
		if ev != nil {
			s.st.Eng.Cancel(ev)
		}
	}
	s.paceEv, s.rtoEv, s.probeEv = nil, nil, nil
	delete(s.st.senders, s.spec.ID)
	if s.st.lastSender == s {
		s.st.lastSender = nil
	}
	if s.st.OnFlowDone != nil {
		s.st.OnFlowDone(FlowStats{
			ID:          s.spec.ID,
			Dst:         s.spec.Dst,
			Size:        s.spec.Size,
			FCT:         s.st.Eng.Now() - s.startAt,
			Retransmits: s.Retransmits,
			RTOs:        s.RTOs,
			ProbesSent:  s.ProbesSent,
		})
	}
	if s.spec.OnComplete != nil {
		s.spec.OnComplete(s.st.Eng.Now() - s.startAt)
	}
}

// Finished reports whether all bytes have been acknowledged.
func (s *Sender) Finished() bool { return s.finished }

// Inflight returns the bytes currently in flight.
func (s *Sender) Inflight() int { return s.inflight }

// SRTT returns the smoothed RTT estimate.
func (s *Sender) SRTT() sim.Time { return s.srtt }

// Algo returns the flow's congestion controller.
func (s *Sender) Algo() cc.Algorithm { return s.spec.Algo }
