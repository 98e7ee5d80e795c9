package sim

import (
	"sync/atomic"
	"time"
)

// totalProcessed accumulates events executed across every engine in the
// process, for batch-level events/sec reporting (internal/runner fans
// engines across goroutines, so the counter is atomic). It is updated once
// per RunUntil call, not per event, so the hot loop stays free of atomics.
var totalProcessed atomic.Uint64

// TotalProcessed returns the number of events executed by all engines in
// this process since it started. Sample it before and after a batch to
// compute an events/sec rate. This is the raw dispatch count: optimizations
// that elide events (e.g. the lazy transmitter wake-up) lower it without
// changing simulation behavior, so it is not comparable across builds — use
// TotalEvents for a build-independent basis.
func TotalProcessed() uint64 { return totalProcessed.Load() }

// totalEvents accumulates the logical event count: dispatched events plus
// reserved-seq positions that were never filed (elided events that earlier
// engine generations would have dispatched). Signed because a seq reserved
// in one RunUntil may be filed in a later one, making individual deltas
// negative; the running sum is exact.
var totalEvents atomic.Int64

// TotalEvents returns the logical event count for all engines in this
// process: every dispatched event plus every elided one (a seq reserved
// via ReserveSeq and never filed stands for an event the eager scheduling
// scheme would have dispatched). Unlike TotalProcessed, this basis is
// stable across engine optimizations, so events/sec computed from it is
// comparable across builds.
func TotalEvents() uint64 {
	v := totalEvents.Load()
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// Event kinds, carried as a tag on each scheduled event for cost
// attribution (SetCostSampler). Tags are advisory — they never affect
// dispatch order or simulation behavior. Untagged events are EKOther.
const (
	EKOther         uint8 = iota
	EKTransmit            // port transmitter wake-up (serialization done)
	EKDeliverSwitch       // packet delivery into a switch port
	EKDeliverHost         // packet delivery into a host NIC
	EKPause               // PFC pause/resume frame delivery
	EKRTO                 // transport retransmission timeout
	EKSampler             // clock-driven sampling hook (SetSampler)
	EKFault               // fault-injection timeline event
	NumEventKinds
)

// eventKindNames maps kind tags to the stable snake_case names used in
// artifacts and the /metrics endpoint.
var eventKindNames = [NumEventKinds]string{
	"other", "transmit", "deliver_switch", "deliver_host",
	"pause", "rto", "sampler", "fault",
}

// EventKindName returns the stable name for a kind tag; out-of-range tags
// report as "other".
func EventKindName(k uint8) string {
	if k >= NumEventKinds {
		return "other"
	}
	return eventKindNames[k]
}

// Event states. An event is pending from scheduling until it is dispatched;
// dispatch moves it to fired (executed) or lets a canceled event drain.
const (
	evPending uint8 = iota
	evFired
	evCanceled
)

// Event is a scheduled callback. Every posting method returns it so callers
// can cancel or tag it; a zero Event must not be constructed directly.
//
// Ownership: once an event has fired or been canceled, the engine reclaims
// the object for reuse — the caller must drop its reference at that point
// (the idiomatic pattern is to nil the field as the first statement of the
// callback, and to nil it right after Cancel). Calling Cancel on a stale
// pointer may cancel an unrelated future event.
type Event struct {
	at    Time
	seq   uint64
	state uint8
	kind  uint8 // cost-attribution tag (EK*); fits existing struct padding
	// The one callback shape: fn is a preallocated function (package-level,
	// or a func value created once) and a0/a1 its arguments. Pointers, func
	// values and integers below 256 boxed in any do not allocate.
	fn     func(a, b any)
	a0, a1 any
	// next threads the event into its wheel slot's chain (wheel.go). Only
	// meaningful while the event sits in a slot; stale otherwise.
	next *Event
}

// Tag sets the event's cost-attribution kind (EK*, see SetCostSampler) and
// returns the event, so a posting call reads Post2(…).Tag(EKPause). Tags are
// read at dispatch, so tagging any time before the event fires is equivalent.
func (e *Event) Tag(kind uint8) *Event {
	e.kind = kind
	return e
}

// At returns the time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called on the event while it was
// still pending.
func (e *Event) Canceled() bool { return e.state == evCanceled }

// entry is one element of the due run or the overflow heap. The ordering
// key lives in the entry itself so comparisons never chase the Event
// pointer.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

// entry returns the event's queue entry: its ordering key plus the pointer.
func (e *Event) entry() entry { return entry{at: e.at, seq: e.seq, ev: e} }

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq // FIFO among simultaneous events
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// not usable; create one with NewEngine.
//
// The event queue is a hierarchical timing wheel (see wheel.go): O(1)
// insertion for the short-horizon events that dominate the simulator,
// strict (time, seq) dispatch order restored by sorting each slot once as
// it drains, and a far-future overflow heap so any timestamp schedules.
// Same-timestamp events are dispatched as one batch, consumed back to back
// off the sorted run.
//
// Cancellation is lazy: Cancel marks the event and the queue drops it when
// its slot drains (or at the next compaction), so Cancel is O(1) and no
// structure needs per-event index bookkeeping.
type Engine struct {
	now       Time
	seq       uint64
	stopped   bool
	processed uint64
	free      []*Event // recycled fired/canceled events

	// Event queue: hierarchical timing wheel + due run + overflow heap
	// (wheel.go). due holds every event at or behind the cursor's current
	// level-0 slot, sorted by (time, seq); due[:dueHead] is the consumed
	// prefix, due[dueHead] the next event to fire.
	due       []entry
	dueHead   int
	overflow  entryHeap
	levels    [numLevels]wheelLevel
	wheelTick uint64 // absolute level-0 slot number of the wheel cursor
	nwheel    int    // events resident in wheel slots (canceled included)
	npending  int    // scheduled, not yet fired or canceled
	ncanceled int    // canceled entries still occupying queue slots

	// Dispatch position, for reserved-seq events (ReserveSeq / PostAtSeq):
	// the most recently reached entry, so callers can ask whether a
	// reserved position has already been passed (ReachedSeq).
	lastAt  Time
	lastSeq uint64

	// Clock-driven sampler (SetSampler). sampleAt is the next sampling
	// instant, maxTime when disabled, so the hot loop pays one always-false
	// comparison per event when no sampler is installed.
	sampleAt    Time
	sampleEvery Time
	sampleFn    func()

	// hooks, the engine's cold state, holds the instruments that observe
	// every dispatch; nil until one is installed, so the dispatch loop pays
	// one always-false nil check per event.
	hooks *engineHooks

	// Logical-event accounting: seqs reserved (ReserveSeq) and later filed
	// (PostAtSeq). reserved-minus-filed counts elided events — see
	// TotalEvents. The acc* fields are the portion already flushed into
	// the global counter (RunUntil flushes on exit, covering calls made
	// between runs as well).
	nreserved   uint64
	nfiled      uint64
	accReserved uint64
	accFiled    uint64
}

// engineHooks are the sampled cost attribution (SetCostSampler: one in
// costEvery dispatches is wall-clock stamped and reported to costFn with the
// event's kind tag) and the per-event digest chain (SetDigest).
type engineHooks struct {
	costFn    func(kind uint8, nanos int64)
	costEvery int64
	costSkip  int64
	dig       *Digest
}

// hooked returns the engine's hooks, allocating them on first use.
func (e *Engine) hooked() *engineHooks {
	if e.hooks == nil {
		e.hooks = &engineHooks{}
	}
	return e.hooks
}

// maxTime is the largest representable simulated time; it doubles as the
// "never" sentinel for the sampler.
const maxTime = Time(1<<63 - 1)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{sampleAt: maxTime}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled (canceled
// events awaiting lazy removal are not counted).
func (e *Engine) Pending() int { return e.npending }

// post is the only way into the queue: it files fn(a, b) at absolute time t
// under seq, on an event taken off the free list (allocating only when the
// list is empty). Scheduling in the past panics: it always indicates a logic
// error in the caller.
func (e *Engine) post(t Time, seq uint64, fn func(a, b any), a, b any) *Event {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at = t
	ev.seq = seq
	ev.state = evPending
	ev.kind = EKOther
	ev.fn = fn
	ev.a0, ev.a1 = a, b
	e.npending++
	e.place(ev)
	return ev
}

// nextSeq takes the next dispatch sequence number: the FIFO rank among
// events that share a timestamp.
func (e *Engine) nextSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// recycle returns a dispatched event to the free list, clearing anything
// it could pin.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.a0, ev.a1 = nil, nil
	e.free = append(e.free, ev)
}

// Post2 schedules fn(a, b) to run d after the current time (a negative d is
// treated as zero) without allocating a closure: fn is expected to be
// preallocated — a package-level function taking the object it acts on — and
// a/b are boxed arguments, so a Post2 with a warm free list performs zero
// heap allocations. This is the primitive of every per-packet and per-timer
// path; At and After are conveniences for set-up and experiment code.
func (e *Engine) Post2(d Time, fn func(a, b any), a, b any) *Event {
	if d < 0 {
		d = 0
	}
	return e.post(e.now+d, e.nextSeq(), fn, a, b)
}

// call is the fn of every closure event: a carries the func().
func call(a, _ any) { a.(func())() }

// At schedules the closure fn to run at absolute time t; a t in the past
// panics. Boxing a func value does not allocate, the closure itself may.
func (e *Engine) At(t Time, fn func()) *Event { return e.post(t, e.nextSeq(), call, fn, nil) }

// After schedules the closure fn to run d after the current time. A
// negative d is treated as zero.
func (e *Engine) After(d Time, fn func()) *Event { return e.Post2(d, call, fn, nil) }

// ReserveSeq allocates and returns a dispatch sequence number without
// scheduling anything. An event later filed under it with PostAtSeq gets
// the FIFO rank it would have had if it had been scheduled at reservation
// time. The port transmitter uses this to arm its wake event lazily — only
// when something actually needs one — while keeping every same-timestamp
// tie-break bit-identical to the former scheme that eagerly scheduled a
// completion event per transmission. A reserved seq that is never used
// simply leaves a harmless gap in the sequence space.
func (e *Engine) ReserveSeq() uint64 {
	e.nreserved++
	return e.nextSeq()
}

// PostAtSeq schedules fn(a, b) at absolute time t under a seq previously
// obtained from ReserveSeq. If t is the current timestamp and the batch
// running at it has not yet passed the reserved position, the event joins
// the running batch at that position — exactly as if it had been in the
// queue all along. Each reserved seq must be filed at most once, and only
// at a (t, seq) position not yet reached (ReachedSeq reports that).
func (e *Engine) PostAtSeq(t Time, seq uint64, fn func(a, b any), a, b any) *Event {
	e.nfiled++
	return e.post(t, seq, fn, a, b)
}

// ReachedSeq reports whether dispatch has reached or passed position
// (t, seq): a later batch has started, or the batch at t has dispatched
// (or skipped) an entry with that seq or higher. Callers holding a
// reserved seq use this to decide between acting inline (the position is
// behind us, as if the reserved event had already fired finding nothing
// to do) and filing the event with PostAtSeq.
func (e *Engine) ReachedSeq(t Time, seq uint64) bool {
	return e.lastAt > t || (e.lastAt == t && e.lastSeq >= seq)
}

// Cancel removes ev from the schedule in O(1) by marking it; the queue
// slot is reclaimed lazily. Canceling an already-fired or already-canceled
// event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.state != evPending {
		return
	}
	ev.state = evCanceled
	e.ncanceled++
	e.npending--
	// If canceled entries dominate the queue (e.g. a pathological
	// cancel/re-schedule loop with far-future deadlines), compact so memory
	// stays proportional to the live event count. Amortized O(1) per Cancel.
	if e.ncanceled > 64 && e.ncanceled*2 > e.queuedEntries() {
		e.compact()
	}
}

// SetSampler installs a clock-driven sampling hook: fn runs every `every`
// of simulated time, starting at Now()+every, interleaved deterministically
// with the event stream — all events with timestamps <= a sampling instant
// execute before the sample is taken, so fn observes the state "just after"
// that instant. The hook consumes no queue events: RunUntil fires it by
// comparing the next event's timestamp against the sampling deadline, and
// drains any remaining instants up to the horizon before returning.
//
// fn must not schedule events in the past; it may call Stop. Passing a nil
// fn (or every <= 0) removes the sampler.
func (e *Engine) SetSampler(every Time, fn func()) {
	if fn == nil || every <= 0 {
		e.sampleAt = maxTime
		e.sampleEvery = 0
		e.sampleFn = nil
		return
	}
	e.sampleEvery = every
	e.sampleFn = fn
	e.sampleAt = e.now + every
}

// SetCostSampler installs a sampled cost-attribution hook: one in every
// `every` dispatched callbacks (sampling-hook firings included, tagged
// EKSampler) is wall-clock stamped, and fn receives the event's kind tag
// plus the measured nanoseconds. The shared 1-in-N countdown across all
// dispatch paths keeps per-kind time shares unbiased. fn runs after the
// stamped callback returns and must not mutate simulation state — stamps
// are observation only, so enabling the sampler cannot perturb results.
// Passing a nil fn (or every <= 0) removes the hook; an engine that never
// had an instrument installed pays a single nil check per dispatch.
func (e *Engine) SetCostSampler(every int64, fn func(kind uint8, nanos int64)) {
	if fn == nil || every <= 0 {
		fn, every = nil, 0
	}
	h := e.hooked()
	h.costFn, h.costEvery, h.costSkip = fn, every, every
}

// Stop makes the current Run or RunUntil return after the executing event
// completes. Any same-timestamp events batched with the executing one stay
// pending and dispatch on the next run.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the schedule is empty or Stop is called.
func (e *Engine) Run() { e.RunUntil(maxTime) }

// RunUntil executes events with timestamps <= end, then sets the clock to
// end (unless the run was stopped early or ran out of events beyond end).
func (e *Engine) RunUntil(end Time) {
	start := e.processed
	defer func() {
		d := e.processed - start
		totalProcessed.Add(d)
		// Logical basis: dispatched plus reserved-but-unfiled (elided)
		// events. A seq reserved in an earlier run and filed in this one
		// makes the reserve/file part negative; the running sum is exact.
		totalEvents.Add(int64(d) + int64(e.nreserved-e.accReserved) - int64(e.nfiled-e.accFiled))
		e.accReserved, e.accFiled = e.nreserved, e.nfiled
	}()
	e.stopped = false
	for !e.stopped && e.refillDue() {
		top := e.due[e.dueHead]
		if top.ev.state == evCanceled {
			// Lazy deletion: drain without advancing the clock or the
			// processed count.
			e.dueHead++
			e.ncanceled--
			e.recycle(top.ev)
			continue
		}
		if top.at > e.sampleAt && e.sampleAt <= end {
			// A sampling instant falls strictly before the next event: take
			// the sample, then re-read the queue (the hook may Stop or
			// Cancel). Strict ordering means events AT the instant ran first.
			e.fireSampler()
			continue
		}
		if top.at > end {
			break
		}
		e.runBatch(top.at)
	}
	// Drain sampling instants between the last event and the horizon. Only
	// for a finite horizon: Run() must still terminate on an empty schedule.
	if end < maxTime {
		for !e.stopped && e.sampleAt <= end {
			e.fireSampler()
		}
	}
	if !e.stopped && e.now < end && end < maxTime {
		e.now = end
	}
}

// runBatch dispatches every event scheduled at exactly time at in one
// pass, popping them off the due run back to back — the run is sorted, so
// equal-timestamp entries come off in seq order — without going back to
// RunUntil's per-timestamp checks between callbacks. Whatever a callback
// files at this timestamp lands in the run at its (time, seq) position:
// ordinary events carry higher seqs and fire after every member already
// there, a reserved-seq event (PostAtSeq) slots in ahead of the members
// scheduled after its reservation. A callback canceling a later member
// takes effect because each member's state is checked at dispatch. On
// Stop, the undispatched remainder simply stays in the run, so a later
// run resumes exactly where this one ended.
func (e *Engine) runBatch(at Time) {
	e.now = at
	for e.dueHead < len(e.due) && e.due[e.dueHead].at == at && !e.stopped {
		ent := e.due[e.dueHead]
		e.dueHead++
		e.lastAt, e.lastSeq = at, ent.seq
		ev := ent.ev
		if ev.state == evCanceled {
			e.ncanceled--
			e.recycle(ev)
			continue
		}
		e.processed++
		e.npending--
		// Copy the payload out before recycling: the callback may schedule
		// new events, which can reuse this very object.
		fn, a0, a1, kind := ev.fn, ev.a0, ev.a1, ev.kind
		ev.state = evFired
		e.recycle(ev)
		if e.hooks != nil {
			e.dispatchHooked(kind, ent.seq, true, fn, a0, a1)
		} else {
			fn(a0, a1)
		}
	}
}

// fireSampler advances the clock to the pending sampling instant and runs
// the hook, stamping it through the cost sampler like any other dispatch so
// EKSampler shares are sampled at the same rate.
func (e *Engine) fireSampler() {
	e.now = e.sampleAt
	e.sampleAt += e.sampleEvery
	if e.hooks != nil {
		e.dispatchHooked(EKSampler, 0, false, call, e.sampleFn, nil)
		return
	}
	e.sampleFn()
}

// dispatchHooked is the instrumented dispatch path, outlined so the plain
// loop body stays small and branch-predictable. It runs fn(a0, a1) through
// the cost sampler — the countdown makes the common case (skip) a decrement
// and compare; only 1-in-costEvery dispatches pay two monotonic clock reads
// — and then, when fold is set (queued events, not sampler firings), folds
// the event, dispatched now under seq, into the digest chain.
//
//go:noinline
func (e *Engine) dispatchHooked(kind uint8, seq uint64, fold bool, fn func(a, b any), a0, a1 any) {
	h := e.hooks
	h.costSkip--
	if h.costFn == nil || h.costSkip > 0 {
		fn(a0, a1)
	} else {
		h.costSkip = h.costEvery
		t0 := time.Now()
		fn(a0, a1)
		h.costFn(kind, int64(time.Since(t0)))
	}
	if fold && h.dig != nil {
		h.dig.fold(e.now, seq, kind)
	}
}
