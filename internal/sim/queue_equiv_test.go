package sim

import (
	"fmt"
	"testing"
)

// This file holds the scripted half of the queue equivalence suite: a tiny
// op language that is run once against the Engine and once against the
// reference heap (heapSched, wheel_test.go), after which the two firing
// traces must be identical. Hand-written scripts (queueScripts) aim at the
// corners the wheel + sorted-run structure could get wrong; FuzzEngineVsHeap
// decodes the same ops from bytes.

// queueModel is what a script needs from a scheduler. Engine and heapSched
// are adapted to it below.
type queueModel interface {
	Now() Time
	Pending() int
	At(t Time, fn func()) (handle any)
	Cancel(handle any)
	ReserveSeq() uint64
	PostAtSeq(t Time, fn func(), seq uint64)
	ReachedSeq(t Time, seq uint64) bool
	RunUntil(end Time)
	Stop()
}

type engineModel struct{ *Engine }

func (m engineModel) At(t Time, fn func()) any { return m.Engine.At(t, fn) }
func (m engineModel) Cancel(h any)             { m.Engine.Cancel(h.(*Event)) }
func (m engineModel) PostAtSeq(t Time, fn func(), seq uint64) {
	m.Engine.PostAtSeq(t, seq, call, fn, nil)
}

type heapModel struct{ h *heapSched }

func (m heapModel) Now() Time                               { return m.h.now }
func (m heapModel) Pending() int                            { return m.h.pending() }
func (m heapModel) At(t Time, fn func()) any                { return m.h.schedule(t, fn) }
func (m heapModel) Cancel(h any)                            { *h.(*bool) = true }
func (m heapModel) ReserveSeq() uint64                      { return m.h.reserveSeq() }
func (m heapModel) PostAtSeq(t Time, fn func(), seq uint64) { m.h.postAtSeq(t, fn, seq) }
func (m heapModel) ReachedSeq(t Time, seq uint64) bool      { return m.h.reachedSeq(t, seq) }
func (m heapModel) RunUntil(end Time)                       { m.h.runUntil(end) }
func (m heapModel) Stop()                                   { m.h.stop() }

// Top-level ops.
const (
	opAt      uint8 = iota // schedule one event at now+delay, acting as act/arg when it fires
	opBurst                // schedule n events into the slot at now+delay, sub-slot offsets shuffled
	opReserve              // at now+delay: a filer event, a reserved seq, then a rival event
	opCancel               // cancel the n-th live event (counting from the oldest)
	opRun                  // RunUntil(now+delay); delay < 0 means Run to the end (or a Stop)
	numOps
)

// What an event does when it fires.
const (
	actNone   uint8 = iota
	actSame         // schedule a child at the current timestamp
	actNear         // schedule a child arg picoseconds ahead: at or just behind the cursor
	actFar          // schedule a child arg microseconds ahead: out in the wheel
	actCancel       // cancel the live event arg places after this one in creation order
	actStop         // Stop the run
	actFile         // file the newest unfiled reservation, if its position is still ahead
	actPurge        // cancel the arg newest live events (enough of them forces a compaction)
	numActs
)

type qop struct {
	kind  uint8
	delay Time
	n     int
	act   uint8
	arg   int
}

type fireRec struct {
	id int
	at Time
}

// scriptRun interprets ops against one model and records what happened.
type scriptRun struct {
	q       queueModel
	trace   []fireRec // fires as (id, time); after each op a (-1-pending, now) marker
	handles []any     // by event id; nil once fired or canceled
	res     []reservation
}

type reservation struct {
	at    Time
	seq   uint64
	filed bool
}

func (r *scriptRun) at(t Time, act uint8, arg int) {
	id := len(r.handles)
	r.handles = append(r.handles, nil)
	r.handles[id] = r.q.At(t, func() { r.fire(id, act, arg) })
}

func (r *scriptRun) fire(id int, act uint8, arg int) {
	r.handles[id] = nil
	now := r.q.Now()
	r.trace = append(r.trace, fireRec{id, now})
	switch act {
	case actSame:
		r.at(now, actNone, 0)
	case actNear:
		r.at(now+Time(arg), actNone, 0)
	case actFar:
		r.at(now+Time(arg)*Microsecond, actNone, 0)
	case actCancel:
		r.cancel(id + 1 + arg)
	case actStop:
		r.q.Stop()
	case actFile:
		r.file()
	case actPurge:
		for i := len(r.handles) - 1; i >= 0 && arg > 0; i-- {
			if r.handles[i] != nil {
				r.cancel(i)
				arg--
			}
		}
	}
}

func (r *scriptRun) cancel(id int) {
	if id < len(r.handles) && r.handles[id] != nil {
		r.q.Cancel(r.handles[id])
		r.handles[id] = nil
	}
}

// file posts the newest unfiled reservation under its reserved seq — the
// PostAtSeq contract allows that only while the position is still ahead.
func (r *scriptRun) file() {
	for i := len(r.res) - 1; i >= 0; i-- {
		rv := &r.res[i]
		if rv.filed {
			continue
		}
		if rv.at >= r.q.Now() && !r.q.ReachedSeq(rv.at, rv.seq) {
			rv.filed = true
			id := len(r.handles)
			r.handles = append(r.handles, nil) // reserved-seq events are not cancelable
			r.q.PostAtSeq(rv.at, func() { r.fire(id, actNone, 0) }, rv.seq)
		}
		return
	}
}

func (r *scriptRun) exec(o qop) {
	now := r.q.Now()
	switch o.kind {
	case opAt:
		r.at(now+o.delay, o.act, o.arg)
	case opBurst:
		base := (now + o.delay) &^ (slotWidth - 1)
		if base < now {
			base += slotWidth
		}
		for i := 0; i < o.n; i++ {
			// Knuth-hash the index into the slot so timestamps arrive
			// shuffled, with collisions (equal-time FIFO) once n is large.
			off := Time(uint32(i+1)*2654435761>>8) % slotWidth
			act := actNone
			if i%8 == 3 {
				act = o.act
			}
			r.at(base+off, act, o.arg)
		}
	case opReserve:
		t := now + o.delay
		r.at(t, actFile, 0)
		r.res = append(r.res, reservation{at: t, seq: r.q.ReserveSeq()})
		r.at(t, o.act, o.arg)
	case opCancel:
		for id, seen := 0, 0; id < len(r.handles); id++ {
			if r.handles[id] != nil {
				if seen == o.n {
					r.cancel(id)
					break
				}
				seen++
			}
		}
	case opRun:
		if o.delay < 0 {
			r.q.RunUntil(maxTime)
		} else {
			r.q.RunUntil(now + o.delay)
		}
	}
	r.trace = append(r.trace, fireRec{-1 - r.q.Pending(), r.q.Now()})
}

// runScript interprets ops against q, calling afterOp (if any) after each.
func runScript(q queueModel, ops []qop, afterOp func()) []fireRec {
	r := &scriptRun{q: q}
	step := func(o qop) {
		r.exec(o)
		if afterOp != nil {
			afterOp()
		}
	}
	for _, o := range ops {
		step(o)
	}
	// Drain: a Stop only ends one run, so keep going until nothing is left.
	for i := 0; r.q.Pending() > 0 && i < 1<<16; i++ {
		step(qop{kind: opRun, delay: -1})
	}
	return r.trace
}

// checkEngineInvariants walks every queue structure and checks the
// engine's bookkeeping against what is actually there.
func checkEngineInvariants(e *Engine) error {
	pending, canceled, fired, inWheel := 0, 0, 0, 0
	count := func(ev *Event) {
		switch ev.state {
		case evPending:
			pending++
		case evCanceled:
			canceled++
		default:
			fired++
		}
	}
	for i, ent := range e.due[e.dueHead:] {
		count(ent.ev)
		if i > 0 && !e.due[e.dueHead+i-1].less(ent) {
			return fmt.Errorf("due run not strictly ascending at %d", i)
		}
		if uint64(ent.at)>>slotBits > e.wheelTick {
			return fmt.Errorf("due entry %d is ahead of the cursor", i)
		}
	}
	for _, ent := range e.overflow {
		count(ent.ev)
	}
	for l := range e.levels {
		lv := &e.levels[l]
		for j := range lv.slots {
			marked := lv.bitmap[j>>6]&(1<<(uint(j)&63)) != 0
			if marked != (lv.slots[j] != nil) {
				return fmt.Errorf("level %d slot %d: bitmap %v, chain nil=%v", l, j, marked, lv.slots[j] == nil)
			}
			for ev := lv.slots[j]; ev != nil; ev = ev.next {
				count(ev)
				inWheel++
				if got := int(uint64(ev.at)>>slotBits>>uint(l*levelBits)) & slotMask; got != j {
					return fmt.Errorf("level %d slot %d holds an event of slot %d", l, j, got)
				}
			}
		}
	}
	if inWheel != e.nwheel || pending != e.npending || canceled != e.ncanceled || fired != 0 {
		return fmt.Errorf("counts: wheel %d/%d pending %d/%d canceled %d/%d (found/recorded), %d fired events still queued",
			inWheel, e.nwheel, pending, e.npending, canceled, e.ncanceled, fired)
	}
	return nil
}

// checkScript runs ops on both models and fails on the first divergence.
func checkScript(t *testing.T, ops []qop) {
	t.Helper()
	e := NewEngine()
	got := runScript(engineModel{e}, ops, func() {
		if err := checkEngineInvariants(e); err != nil {
			t.Fatal(err)
		}
	})
	want := runScript(heapModel{&heapSched{}}, ops, nil)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("trace diverges at %d: engine %+v, reference heap %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine trace has %d records, reference heap %d", len(got), len(want))
	}
}

// queueScripts are the corners of the wheel + sorted-run structure, each
// small enough to read; TestEngineHeapEquivalence runs them.
var queueScripts = []struct {
	name string
	ops  []qop
}{
	{"dense-slot-shuffled", []qop{
		// 100 > sortCutover entries in one level-0 slot out in the wheel,
		// so the drain takes the pdqsort path; 300 more straight into the
		// cursor's own slot, one sorted insert each.
		{kind: opBurst, delay: 3 * Microsecond, n: 100},
		{kind: opBurst, delay: 0, n: 300},
		{kind: opRun, delay: -1},
	}},
	{"insert-at-and-behind-cursor", []qop{
		// Members of a partly consumed run schedule at the current
		// timestamp, a few ps ahead (inside the run), and out in the wheel.
		{kind: opBurst, delay: Microsecond, n: 40, act: actSame},
		{kind: opBurst, delay: Microsecond, n: 40, act: actNear, arg: 700},
		{kind: opBurst, delay: Microsecond, n: 40, act: actFar, arg: 9},
		{kind: opRun, delay: Microsecond + slotWidth/2}, // stop inside the slot
		{kind: opAt, delay: 1}, // cursor is ahead of the clock
		{kind: opAt, delay: 0, act: actSame},
		{kind: opRun, delay: -1},
	}},
	{"postatseq-splice", []qop{
		// The filer runs inside the batch the reservation belongs to and
		// splices it in ahead of the rival; then once more with the batch
		// buried in a dense slot, and once filed early through the wheel.
		{kind: opReserve, delay: 50 * Nanosecond},
		{kind: opRun, delay: -1},
		{kind: opBurst, delay: 2 * Microsecond, n: 60},
		{kind: opReserve, delay: 2*Microsecond + 100, act: actSame},
		{kind: opRun, delay: -1},
		{kind: opReserve, delay: 20 * Microsecond},
		{kind: opAt, delay: Microsecond, act: actFile},
		{kind: opRun, delay: -1},
	}},
	{"cancel-queued-due-entry", []qop{
		// Cancel entries that already sit in the sorted run: later members
		// of the same batch, and later timestamps of the same slot.
		{kind: opAt, delay: Microsecond, act: actCancel, arg: 1},
		{kind: opAt, delay: Microsecond},
		{kind: opAt, delay: Microsecond},
		{kind: opAt, delay: Microsecond + 5, act: actCancel, arg: 0},
		{kind: opAt, delay: Microsecond + 9},
		{kind: opRun, delay: Microsecond + 1},
		{kind: opCancel, n: 0}, // from outside a run, top of the run
		{kind: opRun, delay: -1},
	}},
	{"stop-mid-batch-and-resume", []qop{
		{kind: opAt, delay: Microsecond},
		{kind: opAt, delay: Microsecond, act: actStop},
		{kind: opAt, delay: Microsecond, act: actSame},
		{kind: opAt, delay: Microsecond},
		{kind: opBurst, delay: Microsecond, n: 30, act: actStop},
		{kind: opRun, delay: -1},
		{kind: opAt, delay: 0}, // scheduled between the stop and the resume
		{kind: opRun, delay: 2 * Microsecond},
		{kind: opRun, delay: -1},
	}},
	{"compaction-half-consumed-run", []qop{
		// A member of a 200-entry run cancels 150 of what is queued —
		// mostly the rest of its own run, plus wheel and overflow entries —
		// which trips the compaction sweep mid-run.
		{kind: opAt, delay: 20 * Second},
		{kind: opAt, delay: 3 * Millisecond},
		{kind: opBurst, delay: 5 * Microsecond, n: 200, act: actPurge, arg: 150},
		{kind: opAt, delay: 40 * Microsecond},
		{kind: opRun, delay: -1},
	}},
	{"cascade-and-overflow", []qop{
		// Dense higher-level slots cascade through refile; the overflow
		// heap drains into the wheel in timestamp order.
		{kind: opBurst, delay: 5 * Millisecond, n: 50},
		{kind: opBurst, delay: 3 * Second, n: 50, act: actFar, arg: 12000},
		{kind: opBurst, delay: 30 * Second, n: 50, act: actNear, arg: 3},
		{kind: opAt, delay: 30*Second + 20*Microsecond},
		{kind: opAt, delay: 100 * Second},
		{kind: opRun, delay: 10 * Millisecond},
		{kind: opRun, delay: -1},
	}},
}

// fuzzScales are the delay magnitudes an encoded op can pick: sub-slot, the
// level-0/1/2 spans, and past the wheel's horizon into the overflow heap.
var fuzzScales = [...]Time{slotWidth, 100 * Nanosecond, 8 * Microsecond,
	500 * Microsecond, 9 * Millisecond, Second, 40 * Second}

// decodeOps turns fuzz input into ops, four bytes each.
func decodeOps(data []byte) []qop {
	var ops []qop
	for ; len(data) >= 4 && len(ops) < 512; data = data[4:] {
		v := int(data[2])<<8 | int(data[3])
		o := qop{
			kind:  data[0] & 7 % numOps,
			act:   data[0] >> 3 % numActs,
			delay: fuzzScales[int(data[1]&15)%len(fuzzScales)] * Time(v) >> 16,
			arg:   v % 1000,
			n:     1 + int(data[1]>>4)*5,
		}
		if o.kind == opRun && data[1]&0x80 != 0 {
			o.delay = -1
		}
		if o.act == actPurge {
			o.arg = 20 + o.arg%200
		}
		ops = append(ops, o)
	}
	return ops
}

// encodeOps is decodeOps' inverse up to rounding, used to seed the fuzz
// corpus from the hand-written scripts.
func encodeOps(ops []qop) []byte {
	var out []byte
	for _, o := range ops {
		scale, v := 0, 0
		if o.delay > 0 {
			for scale < len(fuzzScales)-1 && fuzzScales[scale] <= o.delay {
				scale++
			}
			v = int(o.delay << 16 / fuzzScales[scale])
		}
		b1 := byte(scale) | byte(min(o.n/5, 7))<<4
		if o.kind == opRun && o.delay < 0 {
			b1 |= 0x80
		}
		out = append(out, o.kind|o.act<<3, b1, byte(v>>8), byte(v))
	}
	return out
}

// FuzzEngineVsHeap feeds byte-decoded op streams to the engine and the
// reference heap and requires identical traces. Run it for real with
//
//	go test -run '^$' -fuzz FuzzEngineVsHeap -fuzztime 10s ./internal/sim
//
// as CI does; under plain `go test` it replays the seed corpus
// (testdata/fuzz/FuzzEngineVsHeap plus the encoded scripts).
func FuzzEngineVsHeap(f *testing.F) {
	for _, sc := range queueScripts {
		f.Add(encodeOps(sc.ops))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScript(t, decodeOps(data))
	})
}
