package obs

import (
	"prioplus/internal/sim"
)

// SpanKind identifies one record in a flow's causal timeline. The journey
// kinds come from the fabric and the transport (where was the packet, when,
// and how long did it wait); the decision kinds come from the congestion
// controllers (what did the flow decide, and which sensed delay caused it).
// Together they answer "why did this flow stop sending at t" — the question
// aggregate telemetry cannot.
type SpanKind uint8

// Journey kinds.
const (
	// SpanHop: a traced packet left an egress queue. Dev names the device,
	// Delay is the time the packet waited in that queue, Seq the byte
	// offset, A the queue occupancy (bytes) at dequeue.
	SpanHop SpanKind = iota
	// SpanDeliver: the data packet reached the receiver. Delay is the
	// one-way fabric delay (SentAt to delivery, no noise).
	SpanDeliver
	// SpanAcked: the sender processed the ACK. Delay is the measured RTT
	// (the exact value the CC saw), A the post-decision window in bytes,
	// B the bytes still in flight.
	SpanAcked
	// SpanProbeAcked: the sender processed a probe ACK. Delay is the probe
	// RTT, A the post-decision window in bytes.
	SpanProbeAcked
	// SpanRetx: a segment was retransmitted. A is the segment length.
	SpanRetx
	// SpanRTO: the retransmission timer fired. A is the bytes in flight.
	SpanRTO
	// SpanDrop: the fabric refused a packet of this flow (buffer admission).
	SpanDrop
	// SpanMark: a packet of this flow was ECN-marked in the fabric.
	SpanMark
	// SpanDone: the flow completed. A is its size, B its retransmit count.
	SpanDone
)

// CC decision-audit kinds.
const (
	// SpanDecStart: the controller started. For PrioPlus, A/B carry the
	// channel [D_target, D_limit] in microseconds.
	SpanDecStart SpanKind = iota + 16
	// SpanDecYield: the flow relinquished bandwidth (channel exit). Delay
	// is the sensed delay that crossed D_limit, A the #flow estimate, B the
	// consecutive over-limit count that armed the filter.
	SpanDecYield
	// SpanDecProbe: a probe was scheduled. Delay is the sensed delay that
	// drove the wait, A the computed wait in microseconds.
	SpanDecProbe
	// SpanDecProbeAns: a probe was answered while stopped. Delay is the
	// probed delay, A encodes the outcome (0 re-probe, 1 resume at the
	// linear-start window, 2 resume with one packet).
	SpanDecProbeAns
	// SpanDecResume: the flow re-entered its channel (transmission
	// resumed). Delay is the probed delay, A the restored window in packets.
	SpanDecResume
	// SpanDecCardEst: #flow was re-estimated from delay*LineRate/cwnd.
	// Delay is the sensed delay, A the new estimate, B the rescaled AI step.
	SpanDecCardEst
	// SpanDecCardDecay: the idle countdown halved #flow. A is the new
	// estimate, B the reset countdown.
	SpanDecCardDecay
	// SpanDecLinearStart: a linear-start window increment was applied.
	// Delay is the sensed delay, A the window (packets) after the step.
	SpanDecLinearStart
	// SpanDecAdaptiveInc: the dual-RTT adaptive increase raised the AI
	// step. Delay is the sensed delay, A the new AI step, B the increment.
	SpanDecAdaptiveInc
	// SpanDecAIRestore: the AI step was restored at the end of a dual-RTT
	// period. A is the restored step.
	SpanDecAIRestore
	// SpanDecCut: the wrapped/underlying controller applied a structural
	// decrease (Swift MD, DCTCP alpha cut, TIMELY gradient or THigh
	// decrease, DCQCN CNP cut, HPCC above-eta shrink, any controller's
	// RTO backoff). Delay is the triggering feedback's delay, A the window
	// or rate after the cut, B the cut factor or auxiliary value.
	SpanDecCut
	// SpanDecGrow: a structural increase beyond plain per-ACK additive
	// growth (TIMELY HAI, DCQCN hyper increase). A is the rate or window
	// after, B an auxiliary value.
	SpanDecGrow
)

var spanKindNames = map[SpanKind]string{
	SpanHop:            "hop",
	SpanDeliver:        "deliver",
	SpanAcked:          "acked",
	SpanProbeAcked:     "probe-acked",
	SpanRetx:           "retx",
	SpanRTO:            "rto",
	SpanDrop:           "drop",
	SpanMark:           "mark",
	SpanDone:           "done",
	SpanDecStart:       "start",
	SpanDecYield:       "yield",
	SpanDecProbe:       "probe",
	SpanDecProbeAns:    "probe-ans",
	SpanDecResume:      "resume",
	SpanDecCardEst:     "card-est",
	SpanDecCardDecay:   "card-decay",
	SpanDecLinearStart: "linear-start",
	SpanDecAdaptiveInc: "adaptive-inc",
	SpanDecAIRestore:   "ai-restore",
	SpanDecCut:         "cc-cut",
	SpanDecGrow:        "cc-grow",
}

var spanKindByName = func() map[string]SpanKind {
	m := make(map[string]SpanKind, len(spanKindNames))
	for k, n := range spanKindNames {
		m[n] = k
	}
	return m
}()

// String returns the span kind's artifact label (hop, deliver, yield, ...).
func (k SpanKind) String() string {
	if n, ok := spanKindNames[k]; ok {
		return n
	}
	return "unknown"
}

// SpanKindByName resolves the artifact encoding of a span kind. ok is false
// for names written by a newer encoder.
func SpanKindByName(name string) (SpanKind, bool) {
	k, ok := spanKindByName[name]
	return k, ok
}

// Decision reports whether a kind belongs to the CC decision audit (as
// opposed to the packet journey).
func (k SpanKind) Decision() bool { return k >= SpanDecStart }

// Span is one record in a flow's causal timeline. Field meaning varies by
// Kind (documented on the constants); unused fields are zero.
type Span struct {
	T     sim.Time
	Kind  SpanKind
	Seq   int64
	Delay sim.Time
	Dev   string
	A, B  float64
}

// DefaultMaxSpans bounds one flow's ring: with the default packet sampling
// (every 16th packet's journey) this holds several milliseconds of a
// line-rate flow without wrapping, at ~2 MB per traced flow.
const DefaultMaxSpans = 32768

// DefaultPacketEvery is the journey sampling stride: hop/deliver/acked
// spans are recorded for every Nth data packet of a traced flow (probes and
// retransmissions are always recorded). Decisions are never sampled.
const DefaultPacketEvery = 16

// FlowLog is one sampled flow's bounded span ring. Spans are appended in
// recording order (ACK-time journey spans arrive retroactively stamped with
// their fabric timestamps, so the ring is not globally time-sorted; readers
// sort by T). When the ring is full the oldest span is overwritten and
// Dropped counts the loss.
type FlowLog struct {
	Flow    int64
	Dropped int64 // spans overwritten after the ring filled

	spans []Span
	head  int // next overwrite position once len(spans) == cap
	max   int
}

func newFlowLog(flow int64, maxSpans int) *FlowLog {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &FlowLog{Flow: flow, max: maxSpans}
}

// Add appends one span, overwriting the oldest when the ring is full.
func (l *FlowLog) Add(sp Span) {
	if l == nil {
		return
	}
	if len(l.spans) < l.max {
		l.spans = append(l.spans, sp)
		return
	}
	l.spans[l.head] = sp
	l.head++
	if l.head == len(l.spans) {
		l.head = 0
	}
	l.Dropped++
}

// Len returns the number of spans currently held.
func (l *FlowLog) Len() int { return len(l.spans) }

// Spans calls fn for every held span in recording order (oldest first).
func (l *FlowLog) Spans(fn func(sp Span)) {
	for i := l.head; i < len(l.spans); i++ {
		fn(l.spans[i])
	}
	for i := 0; i < l.head; i++ {
		fn(l.spans[i])
	}
}

// FlowTracer records causal timelines for a deterministic sample of flows.
// Admission is first-come under a MaxFlows cap (flow start order is
// deterministic in the engine-per-run model), optionally filtered to an
// explicit Match list or thinned by a hash stride (Every). The tracer also
// implements Tracer so the harness can chain it into the switch trace
// hook: per-flow drop and ECN-mark events of sampled flows become journey
// spans, everything is forwarded to Inner.
//
// Like the rest of the package, a FlowTracer belongs to one run and one
// goroutine. All hot-path hooks are nil-guarded: with no tracer installed
// the packet path costs one branch, and unsampled flows cost a nil FlowLog
// check per event.
type FlowTracer struct {
	// MaxFlows caps how many flows are admitted (<= 0 admits none, so the
	// zero value records nothing).
	MaxFlows int
	// Match, when non-empty, restricts admission to these flow IDs
	// (still subject to MaxFlows).
	Match []int64
	// Every, when > 1, admits only flows whose ID hash falls on the
	// stride — a deterministic 1-in-N sample for big runs.
	Every int
	// MaxSpans bounds each flow's ring (0 = DefaultMaxSpans).
	MaxSpans int
	// PacketEvery samples packet journeys: hop/deliver/acked spans are
	// recorded for every Nth data packet (0 = DefaultPacketEvery, 1 =
	// every packet). Probes, retransmissions, and decisions are always
	// recorded.
	PacketEvery int
	// Inner, when non-nil, receives every trace event after the tracer
	// inspects it, and Devs resolves the events' device ids for the spans
	// (both set by Recorder.SwitchEmitter, so full event traces compose
	// with flow tracing).
	Inner Tracer
	Devs  *DevTable

	logs  map[int64]*FlowLog
	order []int64
}

// NewFlowTracer returns a tracer admitting up to maxFlows flows.
func NewFlowTracer(maxFlows int) *FlowTracer {
	return &FlowTracer{MaxFlows: maxFlows}
}

// traceHash mixes a flow ID for the Every stride (the same 64→32 finalizer
// netsim uses for ECMP, duplicated here to keep obs import-free of netsim).
func traceHash(flow int64) uint32 {
	x := uint64(flow)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return uint32(x)
}

func (t *FlowTracer) wants(flow int64) bool {
	if t.MaxFlows <= 0 || len(t.logs) >= t.MaxFlows {
		return false
	}
	if len(t.Match) > 0 {
		for _, id := range t.Match {
			if id == flow {
				return true
			}
		}
		return false
	}
	if t.Every > 1 && traceHash(flow)%uint32(t.Every) != 0 {
		return false
	}
	return true
}

// Admit returns the flow's log, admitting it if the sampling policy allows
// and the cap has room; nil means the flow is not traced. Call it once per
// flow at sender start — admission order is the deterministic sample.
func (t *FlowTracer) Admit(flow int64) *FlowLog {
	if t == nil {
		return nil
	}
	if fl, ok := t.logs[flow]; ok {
		return fl
	}
	if !t.wants(flow) {
		return nil
	}
	if t.logs == nil {
		t.logs = make(map[int64]*FlowLog)
	}
	fl := newFlowLog(flow, t.MaxSpans)
	t.logs[flow] = fl
	t.order = append(t.order, flow)
	return fl
}

// Log returns the flow's log without admitting it (nil when unsampled).
func (t *FlowTracer) Log(flow int64) *FlowLog {
	if t == nil {
		return nil
	}
	return t.logs[flow]
}

// JourneyStride resolves the effective packet-journey sampling stride.
func (t *FlowTracer) JourneyStride() int64 {
	if t == nil || t.PacketEvery == 1 {
		return 1
	}
	if t.PacketEvery <= 0 {
		return DefaultPacketEvery
	}
	return int64(t.PacketEvery)
}

// Logs returns every admitted flow's log in admission order (deterministic
// for a given run).
func (t *FlowTracer) Logs() []*FlowLog {
	if t == nil {
		return nil
	}
	out := make([]*FlowLog, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.logs[id])
	}
	return out
}

// Trace implements Tracer: per-flow drop and mark events of sampled flows
// become journey spans; every event is forwarded to Inner. Installed on
// switches (drop/mark sources) by harness.Net.Observe — not on ports, whose
// per-packet enqueue/dequeue volume is covered by the INT piggyback instead.
func (t *FlowTracer) Trace(ev *Event) {
	switch ev.Kind {
	case Drop:
		if fl := t.logs[ev.Flow]; fl != nil {
			fl.Add(Span{T: ev.T, Kind: SpanDrop, Seq: ev.Seq, Dev: t.Devs.Name(ev.Dev), A: float64(ev.Bytes)})
		}
	case Mark:
		if fl := t.logs[ev.Flow]; fl != nil {
			fl.Add(Span{T: ev.T, Kind: SpanMark, Seq: ev.Seq, Dev: t.Devs.Name(ev.Dev), A: float64(ev.QLen)})
		}
	}
	if t.Inner != nil {
		t.Inner.Trace(ev)
	}
}
