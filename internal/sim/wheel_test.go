package sim

import (
	"math/rand"
	"testing"
)

// heapSched is the binary-heap scheduler the engine used before the timing
// wheel (PR 2's lazy-cancel heap), kept verbatim-in-spirit as the reference
// implementation: a single min-heap over (time, seq) with lazy cancel,
// popped one entry at a time. The wheel must be observationally equivalent
// to it — same firing order, same pending counts, same clock — for any
// schedule/cancel/run sequence, reserved seqs and Stop included.
type heapSched struct {
	now     Time
	seq     uint64
	heap    []refEntry
	stopped bool
	lastAt  Time // position of the most recently fired entry (reachedSeq)
	lastSeq uint64
}

type refEntry struct {
	at       Time
	seq      uint64
	canceled *bool
	fire     func()
}

func (a refEntry) less(b refEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *heapSched) schedule(at Time, fire func()) *bool {
	canceled := h.push(at, h.seq, fire)
	h.seq++
	return canceled
}

func (h *heapSched) push(at Time, seq uint64, fire func()) *bool {
	canceled := new(bool)
	h.heap = append(h.heap, refEntry{at: at, seq: seq, canceled: canceled, fire: fire})
	for i := len(h.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.heap[i].less(h.heap[parent]) {
			break
		}
		h.heap[i], h.heap[parent] = h.heap[parent], h.heap[i]
		i = parent
	}
	return canceled
}

// reserveSeq, postAtSeq and reachedSeq mirror the engine's reserved-seq
// API: in a global heap a reserved rank needs no splicing, the entry just
// sorts where its seq says.
func (h *heapSched) reserveSeq() uint64 {
	h.seq++
	return h.seq - 1
}

func (h *heapSched) postAtSeq(at Time, fire func(), seq uint64) { h.push(at, seq, fire) }

func (h *heapSched) reachedSeq(t Time, seq uint64) bool {
	return h.lastAt > t || (h.lastAt == t && h.lastSeq >= seq)
}

func (h *heapSched) stop() { h.stopped = true }

func (h *heapSched) pending() int {
	n := 0
	for _, ent := range h.heap {
		if !*ent.canceled {
			n++
		}
	}
	return n
}

func (h *heapSched) runUntil(end Time) {
	h.stopped = false
	for len(h.heap) > 0 && !h.stopped {
		top := h.heap[0]
		if !*top.canceled && top.at > end {
			break
		}
		n := len(h.heap) - 1
		h.heap[0] = h.heap[n]
		h.heap = h.heap[:n]
		for i := 0; ; {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && h.heap[r].less(h.heap[child]) {
				child = r
			}
			if !h.heap[child].less(h.heap[i]) {
				break
			}
			h.heap[i], h.heap[child] = h.heap[child], h.heap[i]
			i = child
		}
		if *top.canceled {
			continue
		}
		h.now = top.at
		h.lastAt, h.lastSeq = top.at, top.seq
		top.fire()
	}
	if !h.stopped && h.now < end && end < maxTime {
		h.now = end
	}
}

// TestEngineHeapEquivalence drives random schedule / cancel / run-until
// sequences through the wheel engine and the reference binary heap in
// lockstep. It is the complement of TestEngineLazyCancelEquivalence (which
// compares against a naive sorted list): together they pin the wheel to
// both prior queue implementations. Delays are drawn across every wheel
// regime — same-tick, level 0, cascades from levels 1-2, and the overflow
// heap — so level boundaries and cursor jumps are all exercised. The
// structure-specific corners (dense slots, inserts behind the cursor,
// splices, compaction mid-run) are scripted in queue_equiv_test.go.
func TestEngineHeapEquivalence(t *testing.T) {
	// Delay magnitudes chosen to land in each wheel structure (slot width
	// is 8.192 ns, level horizons 8.4 us / 8.6 ms / 8.8 s).
	scales := []Time{Nanosecond, 100 * Nanosecond, 10 * Microsecond,
		10 * Millisecond, Second, 100 * Second}
	for _, sc := range queueScripts {
		t.Run(sc.name, func(t *testing.T) { checkScript(t, sc.ops) })
	}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &heapSched{}
		var got, want []int
		handles := map[int]*Event{}
		flags := map[int]*bool{}
		nextID := 0

		for op := 0; op < 400; op++ {
			switch r.Intn(5) {
			case 0, 1: // schedule
				d := Time(r.Int63n(int64(scales[r.Intn(len(scales))])))
				at := e.Now() + d
				id := nextID
				nextID++
				handles[id] = e.At(at, func() { got = append(got, id) })
				flags[id] = ref.schedule(at, func() { want = append(want, id) })
			case 2: // cancel a random live event
				if len(handles) == 0 {
					continue
				}
				// Deterministic victim choice: lowest id >= a random probe.
				probe := r.Intn(nextID)
				for id := probe; id < probe+nextID; id++ {
					if h, ok := handles[id%nextID]; ok {
						e.Cancel(h)
						*flags[id%nextID] = true
						delete(handles, id%nextID)
						delete(flags, id%nextID)
						break
					}
				}
			case 3, 4: // advance the clock
				d := Time(r.Int63n(int64(scales[r.Intn(len(scales))])))
				end := e.Now() + d
				e.RunUntil(end)
				ref.runUntil(end)
				// Fired events are recycled by the engine; their handles are
				// stale and must be dropped before the next cancel op.
				for id := range handles {
					if fired(want, id) {
						delete(handles, id)
						delete(flags, id)
					}
				}
			}
			if e.Pending() != ref.pending() {
				t.Fatalf("seed %d op %d: Pending() = %d, heap reference has %d",
					seed, op, e.Pending(), ref.pending())
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d op %d: fired %d events, reference fired %d",
					seed, op, len(got), len(want))
			}
		}
		e.Run()
		ref.runUntil(maxTime)
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing order diverges at %d: got %d, want %d",
					seed, i, got[i], want[i])
			}
		}
		if e.Now() != ref.now {
			t.Fatalf("seed %d: clock diverges: engine %v, reference %v", seed, e.Now(), ref.now)
		}
		if err := checkEngineInvariants(e); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func fired(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestEngineBatchSameTickOrder pins the batched same-timestamp dispatch
// contract: N events at one tick fire in scheduling (seq) order; events a
// callback schedules at the same tick fire after the whole batch, also in
// seq order.
func TestEngineBatchSameTickOrder(t *testing.T) {
	e := NewEngine()
	const at = 5 * Microsecond
	var order []int
	for i := 0; i < 200; i++ {
		i := i
		e.At(at, func() {
			order = append(order, i)
			if i == 50 {
				// Scheduled mid-batch at the same timestamp: must fire after
				// every original batch member, in scheduling order.
				e.At(at, func() { order = append(order, 1000) })
				e.At(at, func() { order = append(order, 1001) })
			}
		})
	}
	e.Run()
	if len(order) != 202 {
		t.Fatalf("fired %d events, want 202", len(order))
	}
	for i := 0; i < 200; i++ {
		if order[i] != i {
			t.Fatalf("batch order[%d] = %d, want %d", i, order[i], i)
		}
	}
	if order[200] != 1000 || order[201] != 1001 {
		t.Fatalf("same-tick events scheduled mid-batch fired as %v, want [1000 1001]", order[200:])
	}
	if e.Now() != at {
		t.Errorf("Now() = %v, want %v", e.Now(), at)
	}
}

// TestEngineBatchCancelWithin: a batch member canceling a later member of
// the same batch must prevent it from firing — lazy cancel applies inside
// a same-timestamp batch, not just across queue pops.
func TestEngineBatchCancelWithin(t *testing.T) {
	e := NewEngine()
	var fired []int
	var victim *Event
	e.At(Microsecond, func() {
		fired = append(fired, 0)
		e.Cancel(victim)
		victim = nil
	})
	victim = e.At(Microsecond, func() { fired = append(fired, 1) })
	e.At(Microsecond, func() { fired = append(fired, 2) })
	e.Run()
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [0 2] (member 1 canceled mid-batch)", fired)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
}

// TestEngineStopMidBatch: Stop from inside a batch returns immediately;
// the undispatched same-timestamp remainder stays pending and resumes in
// order on the next run.
func TestEngineStopMidBatch(t *testing.T) {
	e := NewEngine()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Microsecond, func() {
			fired = append(fired, i)
			if i == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events before Stop, want 4", len(fired))
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d after mid-batch Stop, want 6", e.Pending())
	}
	e.Run()
	if len(fired) != 10 {
		t.Fatalf("fired %d events after resume, want 10", len(fired))
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("fired[%d] = %d, want %d (order must survive a mid-batch Stop)", i, v, i)
		}
	}
}

// TestEngineWheelLevels schedules one event per wheel regime — same slot,
// level 0, levels 1-2, and the overflow heap — and checks global firing
// order plus exact timestamps as the cursor cascades across level
// boundaries.
func TestEngineWheelLevels(t *testing.T) {
	e := NewEngine()
	delays := []Time{
		3 * Nanosecond,    // inside the first slot (due run directly)
		500 * Nanosecond,  // level 0
		100 * Microsecond, // level 1
		50 * Millisecond,  // level 2
		10 * Second,       // overflow (beyond the ~8.8 s horizon)
		60 * Second,       // overflow, a later top-level window
		200 * Second,      // overflow, later still
	}
	var fired []Time
	// Schedule in shuffled order so placement order differs from fire order.
	for _, i := range []int{4, 1, 6, 0, 3, 5, 2} {
		d := delays[i]
		e.At(d, func() { fired = append(fired, e.Now()) })
	}
	e.Run()
	if len(fired) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(fired), len(delays))
	}
	for i, d := range delays {
		if fired[i] != d {
			t.Errorf("fired[%d] at %v, want %v", i, fired[i], d)
		}
	}
}

// TestEngineWheelRTORearm models the retransmit-timer stress case the
// wheel must absorb: a far-future RTO armed and canceled on every "ACK",
// with the occasional timer allowed to fire. The timer crosses level
// boundaries as the clock advances toward it.
func TestEngineWheelRTORearm(t *testing.T) {
	e := NewEngine()
	rtoFired := 0
	var rto *Event
	arm := func() {
		rto = e.After(5*Millisecond, func() { rto = nil; rtoFired++ })
	}
	acks := 0
	var onAck func()
	onAck = func() {
		// ACK clock: cancel and re-arm the RTO, as transport does.
		e.Cancel(rto)
		arm()
		acks++
		if acks < 2000 {
			e.After(10*Microsecond, onAck)
		}
	}
	arm()
	e.After(10*Microsecond, onAck)
	e.Run()
	if acks != 2000 {
		t.Fatalf("acks = %d, want 2000", acks)
	}
	if rtoFired != 1 {
		t.Errorf("RTO fired %d times, want exactly 1 (the final armed timer)", rtoFired)
	}
	// The cancel/re-arm loop must not accumulate canceled entries: 2000
	// cancels against a queue of ~2 live events must have compacted.
	if n := e.queuedEntries(); n > 256 {
		t.Errorf("queue holds %d entries after the re-arm loop, want <= 256", n)
	}
}

// TestEngineWheelSparseJump: the cursor must skip long empty stretches in
// O(levels) rather than slot-by-slot; with events 30 s apart this would
// time out if advancing were linear in elapsed slots.
func TestEngineWheelSparseJump(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 1; i <= 20; i++ {
		e.At(Time(i)*30*Second, func() { fired++ })
	}
	e.Run()
	if fired != 20 {
		t.Fatalf("fired %d events, want 20", fired)
	}
	if e.Now() != 600*Second {
		t.Errorf("Now() = %v, want 600s", e.Now())
	}
}

// TestEngineWheelOverflowCancel: canceling events parked in the overflow
// heap reclaims them via compaction and never fires them.
func TestEngineWheelOverflowCancel(t *testing.T) {
	e := NewEngine()
	fired := 0
	var evs []*Event
	for i := 0; i < 1000; i++ {
		evs = append(evs, e.At(100*Second+Time(i), func() { fired++ }))
	}
	keep := e.At(100*Second+Time(len(evs)), func() { fired++ })
	_ = keep
	for _, ev := range evs {
		e.Cancel(ev)
	}
	e.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (only the uncanceled overflow event)", fired)
	}
	if n := e.queuedEntries(); n != 0 {
		t.Errorf("queue holds %d entries after the run, want 0", n)
	}
}

// TestEngineBatchZeroAlloc: batched same-tick dispatch must stay on the
// zero-allocation path once the due run and free list are warm.
func TestEngineBatchZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	warm := func() {
		for i := 0; i < 32; i++ {
			e.After(Microsecond, fn) // 32 events at one tick
		}
		e.Run()
	}
	warm()
	if avg := testing.AllocsPerRun(200, warm); avg != 0 {
		t.Errorf("same-tick batch dispatch: %v allocs/op, want 0", avg)
	}
}

// rearmTimer is one member of TestWheelDenseSlotNoAlloc's timer
// population: closure-free, re-arming itself with the next delay of a
// cycle that visits every wheel level.
type rearmTimer struct {
	e     *Engine
	i     int
	fires *int
	limit *int
}

var rearmDelays = [...]Time{
	100 * Nanosecond, 3 * Microsecond, // level 0
	17 * Microsecond, 400 * Microsecond, 2 * Millisecond, // level 1
	10 * Millisecond, 20 * Millisecond, // level 2
}

func rearmFire(a, _ any) {
	tm := a.(*rearmTimer)
	*tm.fires++
	if *tm.fires >= *tm.limit {
		tm.e.Stop()
	}
	tm.i++
	tm.e.Post2(rearmDelays[tm.i%len(rearmDelays)], rearmFire, tm, nil)
}

// TestWheelDenseSlotNoAlloc: the wheel owns no per-slot memory, so after
// one warm-up pass (free list and due run at their high-water marks) even
// the extremes never reach the allocator — 10 000 events in one level-1
// slot, half of them in a single level-0 slot, and a deep population of
// 100 000 self-re-arming timers cascading through every level.
func TestWheelDenseSlotNoAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	const l1Width = slotWidth << levelBits
	dense := func() {
		// Start of a level-1 slot a few slots ahead of the clock.
		base := (e.Now()/l1Width + 3) * l1Width
		for i := 0; i < 10000; i++ {
			off := Time(uint32(i+1)*2654435761>>8) % slotWidth // shuffled
			if i%2 == 1 {
				off += Time(i) * (l1Width - slotWidth) / 10000 // spread over the level-0 slots below
			}
			e.At(base+off, fn)
		}
		e.Run()
	}
	dense()
	if avg := testing.AllocsPerRun(5, dense); avg != 0 {
		t.Errorf("10k events into one level-1 slot: %v allocs per pass, want 0", avg)
	}

	fires, limit := 0, 0
	for i := 0; i < 100000; i++ {
		tm := &rearmTimer{e: e, i: i, fires: &fires, limit: &limit}
		e.Post2(rearmDelays[i%len(rearmDelays)]+Time(i)*Nanosecond, rearmFire, tm, nil)
	}
	deep := func() {
		limit = fires + 300000
		e.Run() // until the timer that reaches the limit calls Stop
	}
	deep()
	if avg := testing.AllocsPerRun(3, deep); avg != 0 {
		t.Errorf("100k re-arming timers: %v allocs per 300k fires, want 0", avg)
	}
	if e.Pending() != 100000 {
		t.Errorf("Pending() = %d, want the 100000 timers", e.Pending())
	}
}
