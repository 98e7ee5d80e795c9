package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{80 * Nanosecond, "80ns"},
		{12 * Microsecond, "12us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Microsecond).Millis(); got != 1.5 {
		t.Errorf("Millis = %v, want 1.5", got)
	}
	if got := FromSeconds(0.5); got != 500*Millisecond {
		t.Errorf("FromSeconds(0.5) = %v, want 500ms", got)
	}
	if got := (250 * Nanosecond).Micros(); got != 0.25 {
		t.Errorf("Micros = %v, want 0.25", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*Nanosecond, func() { order = append(order, 3) })
	e.At(10*Nanosecond, func() { order = append(order, 1) })
	e.At(20*Nanosecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30*Nanosecond {
		t.Errorf("Now() = %v, want 30ns", e.Now())
	}
}

func TestEngineSimultaneousFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5*Microsecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: order[%d] = %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.After(Microsecond, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 9*Microsecond {
		t.Errorf("Now() = %v, want 9us", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(Microsecond, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.Cancel(nil)
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
}

func TestEngineCancelFromEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	var victim *Event
	e.At(Microsecond, func() { e.Cancel(victim) })
	victim = e.At(2*Microsecond, func() { fired = true })
	e.Run()
	if fired {
		t.Error("event canceled mid-run still fired")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{Microsecond, 2 * Microsecond, 3 * Microsecond} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(2 * Microsecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 2*Microsecond {
		t.Errorf("Now() = %v, want 2us", e.Now())
	}
	e.RunUntil(10 * Microsecond)
	if len(fired) != 3 {
		t.Fatalf("fired %d events after second run, want 3", len(fired))
	}
	if e.Now() != 10*Microsecond {
		t.Errorf("Now() = %v, want 10us (clock advances to end)", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i)*Microsecond, func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 2 {
		t.Errorf("count = %d, want 2 (stopped after second event)", count)
	}
	// The remaining events are still pending and can be resumed.
	e.Run()
	if count != 5 {
		t.Errorf("count after resume = %d, want 5", count)
	}
}

// TestEnginePastPanics: both absolute-time entry points refuse a time
// behind the clock.
func TestEnginePastPanics(t *testing.T) {
	for _, p := range postings {
		if !p.absolute {
			continue
		}
		e := NewEngine()
		e.At(Microsecond, func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s in the past did not panic", p.name)
				}
			}()
			p.post(e, -Microsecond, func() {})
		})
		e.Run()
	}
}

// TestEngineNegativeAfterClamped: both relative-time entry points clamp a
// negative delay to now.
func TestEngineNegativeAfterClamped(t *testing.T) {
	for _, p := range postings {
		if p.absolute {
			continue
		}
		e := NewEngine()
		fired := false
		e.At(Microsecond, func() {
			p.post(e, -5*Microsecond, func() {
				fired = true
				if e.Now() != Microsecond {
					t.Errorf("negative %s fired at %v, want 1us", p.name, e.Now())
				}
			})
		})
		e.Run()
		if !fired {
			t.Errorf("negative %s never fired", p.name)
		}
	}
}

// postings is the engine's whole posting surface, one adapter per entry
// point: post files fn at now+d (for PostAtSeq, under a seq reserved at the
// call) and returns the handle. absolute marks the entry points that take a
// time rather than a delay: those panic on the past, the others clamp.
var postings = []struct {
	name     string
	absolute bool
	post     func(e *Engine, d Time, fn func()) *Event
}{
	{"At", true, func(e *Engine, d Time, fn func()) *Event { return e.At(e.Now()+d, fn) }},
	{"After", false, func(e *Engine, d Time, fn func()) *Event { return e.After(d, fn) }},
	{"Post2", false, func(e *Engine, d Time, fn func()) *Event { return e.Post2(d, call, fn, nil) }},
	{"PostAtSeq", true, func(e *Engine, d Time, fn func()) *Event {
		return e.PostAtSeq(e.Now()+d, e.ReserveSeq(), call, fn, nil)
	}},
}

// TestPostingSurface holds every entry point, untagged and tagged, to the
// one contract: the event fires once at its (time, seq) rank, the cost
// sampler sees its tag (EKOther when untagged), and the returned handle
// cancels it.
func TestPostingSurface(t *testing.T) {
	for _, p := range postings {
		for _, tag := range []uint8{EKOther, EKPause} {
			e := NewEngine()
			var order []string
			var kinds []uint8
			e.SetCostSampler(1, func(kind uint8, _ int64) { kinds = append(kinds, kind) })
			mark := func(s string) func() { return func() { order = append(order, s) } }
			const at = 20 * Nanosecond
			e.At(at+1, mark("later"))
			e.At(at, mark("before"))
			ev := p.post(e, at, mark("x"))
			e.At(at, mark("after"))
			e.At(at-1, mark("earlier"))
			if tag != EKOther && ev.Tag(tag) != ev {
				t.Errorf("%s: Tag did not return its event", p.name)
			}
			if ev.At() != at || e.Pending() != 5 {
				t.Errorf("%s: handle at %v, %d pending; want %v, 5", p.name, ev.At(), e.Pending(), at)
			}
			e.Run()
			if got, want := strings.Join(order, " "), "earlier before x after later"; got != want {
				t.Errorf("%s tag %d: order %q, want %q", p.name, tag, got, want)
			}
			if want := []uint8{EKOther, EKOther, tag, EKOther, EKOther}; !reflect.DeepEqual(kinds, want) {
				t.Errorf("%s tag %d: sampled kinds %v, want %v", p.name, tag, kinds, want)
			}

			doomed := p.post(e, at, mark("canceled")).Tag(tag)
			if e.Pending() != 1 {
				t.Errorf("%s: %d pending after one post, want 1", p.name, e.Pending())
			}
			e.Cancel(doomed)
			if e.Pending() != 0 || !doomed.Canceled() {
				t.Errorf("%s: %d pending after Cancel (canceled=%v), want 0", p.name, e.Pending(), doomed.Canceled())
			}
			e.Run()
			if len(order) != 5 || len(kinds) != 5 {
				t.Errorf("%s tag %d: canceled event fired: %v", p.name, tag, order)
			}
		}
	}
}

// TestPostingMethodSet pins the exported posting surface: every method of
// *Engine that takes a callback or returns an *Event, the two hook
// installers aside. A fifth way to post an event has to edit this list.
func TestPostingMethodSet(t *testing.T) {
	hooks := map[string]bool{"SetSampler": true, "SetCostSampler": true}
	var got []string
	typ := reflect.TypeOf(&Engine{})
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		posts := false
		for j := 1; j < m.Type.NumIn(); j++ {
			posts = posts || m.Type.In(j).Kind() == reflect.Func
		}
		for j := 0; j < m.Type.NumOut(); j++ {
			posts = posts || m.Type.Out(j) == reflect.TypeOf(&Event{})
		}
		if posts && !hooks[m.Name] {
			got = append(got, m.Name)
		}
	}
	if want := []string{"After", "At", "Post2", "PostAtSeq"}; !reflect.DeepEqual(got, want) {
		t.Errorf("posting methods of *Engine = %v, want exactly %v", got, want)
	}
}

// Property: for any set of scheduled delays, events fire in nondecreasing
// time order and all events fire exactly once.
func TestEngineHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			d := Time(d) * Nanosecond
			e.At(d, func() { fired = append(fired, d) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEnginePostRecycles(t *testing.T) {
	e := NewEngine()
	fired := 0
	// Interleave Post and Run so events recycle; all must fire exactly
	// once and in order.
	var last Time = -1
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			e.After(Time(i)*Nanosecond, func() {
				fired++
				if e.Now() < last {
					t.Fatal("recycled event fired out of order")
				}
				last = e.Now()
			})
		}
		e.Run()
	}
	if fired != 1000 {
		t.Errorf("fired %d events, want 1000", fired)
	}
}

func TestEnginePostAndAtInterleaved(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(2*Nanosecond, func() { order = append(order, 2) })
	ev := e.At(1*Nanosecond, func() { order = append(order, 1) })
	e.After(3*Nanosecond, func() { order = append(order, 3) })
	_ = ev
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

// refEvent is one event in the reference scheduler used to pin down the
// lazy-cancel engine's semantics: a plain list fired in (at, seq) order.
type refEvent struct {
	at       Time
	id       int
	canceled bool
	fired    bool
}

// TestEngineLazyCancelEquivalence drives random schedule / cancel /
// run-until sequences through the engine and a naive reference scheduler
// in lockstep: firing order and Pending() must match at every step.
func TestEngineLazyCancelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ref []*refEvent
		handles := map[int]*Event{}
		var got, want []int

		refPending := func() int {
			n := 0
			for _, ev := range ref {
				if !ev.canceled && !ev.fired {
					n++
				}
			}
			return n
		}
		refFire := func(end Time) {
			var due []*refEvent
			for _, ev := range ref {
				if !ev.canceled && !ev.fired && ev.at <= end {
					due = append(due, ev)
				}
			}
			sort.SliceStable(due, func(i, j int) bool {
				if due[i].at != due[j].at {
					return due[i].at < due[j].at
				}
				return due[i].id < due[j].id // FIFO among simultaneous
			})
			for _, ev := range due {
				ev.fired = true
				want = append(want, ev.id)
			}
		}

		for op := 0; op < 500; op++ {
			switch r.Intn(5) {
			case 0, 1: // schedule
				at := e.Now() + Time(r.Intn(1000))*Nanosecond
				id := len(ref)
				ref = append(ref, &refEvent{at: at, id: id})
				handles[id] = e.At(at, func() { got = append(got, id) })
			case 2: // cancel a random live event
				var live []int
				for id, ev := range ref {
					if !ev.canceled && !ev.fired {
						live = append(live, id)
					}
				}
				if len(live) > 0 {
					sort.Ints(live)
					id := live[r.Intn(len(live))]
					e.Cancel(handles[id])
					delete(handles, id)
					ref[id].canceled = true
				}
			case 3, 4: // advance the clock
				end := e.Now() + Time(r.Intn(1500))*Nanosecond
				e.RunUntil(end)
				refFire(end)
			}
			if e.Pending() != refPending() {
				t.Fatalf("seed %d op %d: Pending() = %d, reference has %d",
					seed, op, e.Pending(), refPending())
			}
		}
		e.Run()
		refFire(Time(1<<63 - 1))
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing order diverges at %d: got %d, want %d",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestPost2ZeroAlloc pins the closure-free scheduling path at zero heap
// allocations once the free lists are warm.
func TestPost2ZeroAlloc(t *testing.T) {
	e := NewEngine()
	type obj struct{ n int }
	a, b := &obj{}, &obj{}
	fn := func(x, y any) { x.(*obj).n += y.(*obj).n }
	for i := 0; i < 64; i++ {
		e.Post2(Nanosecond, fn, a, b)
	}
	e.Run()
	if avg := testing.AllocsPerRun(200, func() {
		e.Post2(Nanosecond, fn, a, b)
		e.Run()
	}); avg != 0 {
		t.Errorf("Post2 with pointer args: %v allocs/op, want 0", avg)
	}
	// Small integers (< 256) box for free too — the PFC pause path relies
	// on this.
	fni := func(x, y any) { a.n += y.(int) }
	e.Post2(Nanosecond, fni, a, 7)
	e.Run()
	if avg := testing.AllocsPerRun(200, func() {
		e.Post2(Nanosecond, fni, a, 200)
		e.Run()
	}); avg != 0 {
		t.Errorf("Post2 with small int arg: %v allocs/op, want 0", avg)
	}
}

// TestAfterSteadyStateZeroAlloc: fired caller-held events are recycled and a
// func value boxes for free, so a warm engine schedules through every entry
// point without allocating when the callback itself is preallocated.
func TestAfterSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Nanosecond, fn)
	}
	e.Run()
	for _, p := range postings {
		if avg := testing.AllocsPerRun(200, func() {
			p.post(e, Nanosecond, fn)
			e.Run()
		}); avg != 0 {
			t.Errorf("%s steady state: %v allocs/op, want 0", p.name, avg)
		}
	}
}

// TestCancelReclaimsCallerHeldEvents: a canceled-then-drained At event goes
// back to the free list, so a schedule/cancel loop allocates nothing.
func TestCancelReclaimsCallerHeldEvents(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Cancel(e.After(Nanosecond, fn))
	}
	e.Run()
	if avg := testing.AllocsPerRun(200, func() {
		e.Cancel(e.After(Nanosecond, fn))
		e.Run()
	}); avg != 0 {
		t.Errorf("schedule/cancel/run loop: %v allocs/op, want 0", avg)
	}
}

// TestCancelLoopBounded: a retransmit-timer-style loop that cancels
// far-future events over and over must not grow the heap or the free list
// unboundedly — lazy deletion compacts when canceled entries dominate.
func TestCancelLoopBounded(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 100000; i++ {
		// Far future: lazy removal never gets to drain these at the top of
		// the heap, so only compaction can reclaim them.
		e.Cancel(e.After(Second, fn))
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after canceling everything, want 0", e.Pending())
	}
	if n := e.queuedEntries(); n > 256 {
		t.Errorf("queue holds %d entries after 100k cancels, want compacted (<= 256)", n)
	}
	if len(e.free) > 256 {
		t.Errorf("free list holds %d events after 100k cancels, want bounded (<= 256)", len(e.free))
	}
	// The engine still works after heavy compaction.
	fired := false
	e.After(Nanosecond, func() { fired = true })
	e.Run()
	if !fired {
		t.Error("event scheduled after compaction did not fire")
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%64)*Nanosecond, fn)
		if e.Pending() > 1024 {
			e.RunUntil(e.Now() + 64*Nanosecond)
		}
	}
	e.Run()
}

func BenchmarkEnginePost2(b *testing.B) {
	e := NewEngine()
	type obj struct{ n int }
	x, y := &obj{}, &obj{}
	fn := func(a, b any) { a.(*obj).n++ }
	_ = y
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Post2(Time(i%64)*Nanosecond, fn, x, y)
		if e.Pending() > 1024 {
			e.RunUntil(e.Now() + 64*Nanosecond)
		}
	}
	e.Run()
}

func TestTotalProcessedAccumulates(t *testing.T) {
	before := TotalProcessed()
	e := NewEngine()
	const n = 100
	for i := 0; i < n; i++ {
		e.After(Time(i), func() {})
	}
	e.RunUntil(Time(n))
	if e.Processed() != n {
		t.Fatalf("engine processed %d events, want %d", e.Processed(), n)
	}
	// Other tests may run engines concurrently, so the global can grow by
	// more than n — but never less.
	if got := TotalProcessed() - before; got < n {
		t.Errorf("TotalProcessed grew by %d, want >= %d", got, n)
	}
}

// TestReserveSeqOrdering: an event filed under a reserved seq dispatches
// exactly where an event scheduled at reservation time would have — ahead
// of same-timestamp events scheduled after the reservation, regardless of
// how late the reserved event is actually filed.
func TestReserveSeqOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	seq := e.ReserveSeq() // rank reserved before the rival exists
	e.At(50*Nanosecond, func() { order = append(order, "rival") })
	e.At(10*Nanosecond, func() {
		e.PostAtSeq(50*Nanosecond, seq, func(_, _ any) { order = append(order, "reserved") }, nil, nil)
	})
	e.Run()
	if len(order) != 2 || order[0] != "reserved" || order[1] != "rival" {
		t.Fatalf("order = %v, want [reserved rival]", order)
	}
}

// TestPostAtSeqSplicesRunningBatch: filing a reserved seq at the current
// timestamp from inside the running batch splices it in at its rank — the
// members scheduled after the reservation still run after it, exactly as
// if the reserved event had been in the queue when the batch was
// collected.
func TestPostAtSeqSplicesRunningBatch(t *testing.T) {
	e := NewEngine()
	var order []string
	var reserved uint64
	const at = 20 * Nanosecond
	e.At(at, func() {
		order = append(order, "a")
		// Runs while the batch at t=20ns is mid-dispatch; rank sits
		// between a and b.
		e.PostAtSeq(at, reserved, func(_, _ any) { order = append(order, "reserved") }, nil, nil)
	})
	reserved = e.ReserveSeq()
	e.At(at, func() { order = append(order, "b") })
	e.At(at, func() { order = append(order, "c") })
	e.Run()
	if len(order) != 4 || order[0] != "a" || order[1] != "reserved" ||
		order[2] != "b" || order[3] != "c" {
		t.Fatalf("order = %v, want [a reserved b c]", order)
	}
}

// TestReachedSeqTracksDispatch: ReachedSeq flips exactly when dispatch
// passes the reserved position — members of the same batch ranked before
// it still see it unreached, members after it see it reached even though
// no event was ever filed under it.
func TestReachedSeqTracksDispatch(t *testing.T) {
	e := NewEngine()
	const at = 30 * Nanosecond
	var reserved uint64
	var before, after bool
	e.At(at, func() { before = e.ReachedSeq(at, reserved) })
	reserved = e.ReserveSeq()
	e.At(at, func() { after = e.ReachedSeq(at, reserved) })
	e.Run()
	if before {
		t.Error("ReachedSeq true before dispatch passed the reserved rank")
	}
	if !after {
		t.Error("ReachedSeq false after dispatch passed the reserved rank")
	}
	if !e.ReachedSeq(at, reserved) {
		t.Error("ReachedSeq false after the batch completed")
	}
	if e.ReachedSeq(at+Nanosecond, e.ReserveSeq()) {
		t.Error("ReachedSeq true for a future position")
	}
}
