package obs_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"unsafe"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// flightDevs names the one device the flight tests' events come from.
var flightDevs obs.DevTable

func flightEvent(i int) *obs.Event {
	return &obs.Event{T: sim.Time(i) * sim.Microsecond, Kind: obs.Enqueue, Dev: flightDevs.ID("tor0"), Flow: int64(i)}
}

func TestFlightRecorderPartialRing(t *testing.T) {
	f := obs.NewFlightRecorder(8)
	for i := 0; i < 3; i++ {
		f.Trace(flightEvent(i))
	}
	if f.Total() != 3 {
		t.Errorf("Total = %d, want 3", f.Total())
	}
	evs := f.Events()
	if len(evs) != 3 {
		t.Fatalf("Events() returned %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Flow != int64(i) {
			t.Errorf("event %d has flow %d, want %d", i, ev.Flow, i)
		}
	}
}

func TestFlightRecorderWrapOldestFirst(t *testing.T) {
	f := obs.NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Trace(flightEvent(i))
	}
	if f.Total() != 10 {
		t.Errorf("Total = %d, want 10", f.Total())
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("Events() returned %d, want ring size 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Flow != want {
			t.Errorf("event %d has flow %d, want %d (oldest-first of last 4)", i, ev.Flow, want)
		}
	}
}

func TestFlightRecorderChainsInner(t *testing.T) {
	// The ring's downstream sink sees every event, by pointer into the ring.
	var got []int64
	r := obs.NewRecorder()
	r.Flight = obs.NewFlightRecorder(2)
	r.Trace = obs.TraceFunc(func(ev *obs.Event) { got = append(got, ev.Flow) })
	em := r.Emitter()
	for i := 0; i < 5; i++ {
		ev := em.Next()
		*ev = *flightEvent(i)
		em.Emit(ev)
	}
	if len(got) != 5 || got[4] != 4 {
		t.Errorf("inner tracer saw %v, want flows 0..4", got)
	}
	if r.Flight.Total() != 5 {
		t.Errorf("ring recorded %d events, want 5", r.Flight.Total())
	}
}

func TestFlightRecorderDump(t *testing.T) {
	f := obs.NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		f.Trace(flightEvent(i))
	}
	var buf bytes.Buffer
	n, err := f.Dump(&buf, &flightDevs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("Dump wrote %d events, want 4", n)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("dump has %d lines, want 4", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("dump line is not valid JSON: %v\n%s", err, lines[0])
	}
	if rec["flow"] != float64(2) {
		t.Errorf("first dumped event flow = %v, want 2 (oldest retained)", rec["flow"])
	}
	if rec["dev"] != "tor0" {
		t.Errorf("dumped event dev = %v, want the name behind its id", rec["dev"])
	}
}

func TestFlightRecorderBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFlightRecorder(0) did not panic")
		}
	}()
	obs.NewFlightRecorder(0)
}

func TestFlightRecorderTraceZeroAlloc(t *testing.T) {
	f := obs.NewFlightRecorder(64)
	ev := flightEvent(1)
	if allocs := testing.AllocsPerRun(1000, func() { f.Trace(ev) }); allocs != 0 {
		t.Errorf("Trace allocates %v per op, want 0", allocs)
	}
}

func TestWatchdogTripOnce(t *testing.T) {
	var calls int
	var gotReason string
	var gotValue, gotLimit int64
	w := &obs.Watchdog{
		MaxInflightBytes: 100,
		OnTrip: func(reason string, value, limit int64) {
			calls++
			gotReason, gotValue, gotLimit = reason, value, limit
		},
	}
	if w.Check(50, 0) {
		t.Error("Check below ceiling reported tripped")
	}
	if w.Tripped() != "" {
		t.Error("Tripped before any trip")
	}
	if !w.Check(150, 0) {
		t.Error("Check above ceiling did not trip")
	}
	if !w.Check(10, 0) {
		t.Error("watchdog un-tripped: trips must latch")
	}
	if calls != 1 {
		t.Errorf("OnTrip called %d times, want exactly 1", calls)
	}
	if gotReason != "inflight_bytes" || gotValue != 150 || gotLimit != 100 {
		t.Errorf("OnTrip(%q, %d, %d), want (inflight_bytes, 150, 100)", gotReason, gotValue, gotLimit)
	}
	if w.Tripped() != "inflight_bytes" {
		t.Errorf("Tripped = %q, want inflight_bytes", w.Tripped())
	}
}

func TestWatchdogHeapEvents(t *testing.T) {
	w := &obs.Watchdog{MaxHeapEvents: 10}
	if w.Check(1<<40, 5) {
		t.Error("tripped on inflight bytes with no byte ceiling configured")
	}
	if !w.Check(0, 11) {
		t.Error("did not trip on heap events")
	}
	if w.Tripped() != "heap_events" {
		t.Errorf("Tripped = %q, want heap_events", w.Tripped())
	}
}

func TestWatchdogInflightTakesPriority(t *testing.T) {
	w := &obs.Watchdog{MaxInflightBytes: 10, MaxHeapEvents: 10}
	w.Check(11, 11)
	if w.Tripped() != "inflight_bytes" {
		t.Errorf("Tripped = %q, want inflight_bytes checked first", w.Tripped())
	}
}

func TestRecorderTracerChaining(t *testing.T) {
	// No flight, no trace: nil tracer.
	r := obs.NewRecorder()
	if r.Emitter() != nil || r.SwitchEmitter() != nil {
		t.Error("Emitter() non-nil with nothing configured")
	}
	emit := func(em *obs.Emitter, i int) {
		ev := em.Next()
		*ev = *flightEvent(i)
		em.Emit(ev)
	}
	// Trace only: events staged in the emitter reach the sink.
	var seen []obs.Event
	r.Trace = obs.TraceFunc(func(ev *obs.Event) { seen = append(seen, *ev) })
	emit(r.Emitter(), 1)
	if len(seen) != 1 || seen[0].Flow != 1 {
		t.Fatal("Trace-only Emitter() did not reach the sink")
	}
	// Flight + trace: ring in front, events reach both.
	r.Flight = obs.NewFlightRecorder(4)
	emit(r.Emitter(), 2)
	if len(seen) != 2 || seen[1].Flow != 2 {
		t.Error("chained Emitter() did not forward to the inner sink")
	}
	if r.Flight.Total() != 1 {
		t.Errorf("flight recorder saw %d events, want 1", r.Flight.Total())
	}
}

// TestEventIsCompact fences the record the flight ring holds 4096 of and
// every traced packet writes twice per hop: at most 40 bytes, and no
// pointer anywhere in it (a string device name made it 80 bytes that the
// garbage collector had to scan and every store had to barrier).
func TestEventIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(obs.Event{}); size > 40 {
		t.Errorf("obs.Event is %d bytes, want <= 40", size)
	}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: obs.Event must stay pointer-free", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(obs.Event{}), "Event")
}

// TestFlightTraceZeroAlloc: the device-side protocol — take the next
// record, fill it, emit it — allocates nothing, whether the record is a ring
// slot, a ring slot forwarded through the flow tracer, or the emitter's
// staging record in front of a plain sink.
func TestFlightTraceZeroAlloc(t *testing.T) {
	emitOne := func(em *obs.Emitter) func() {
		i := int64(0)
		return func() {
			ev := em.Next()
			*ev = obs.Event{T: sim.Time(i), Kind: obs.Mark, Dev: 1, Flow: i % 4, QLen: 4096}
			em.Emit(ev)
			i++
		}
	}
	ring := obs.NewRecorder()
	ring.Flight = obs.NewFlightRecorder(64)
	chained := obs.NewRecorder()
	chained.Flight = obs.NewFlightRecorder(64)
	chained.FlowTrace = obs.NewFlowTracer(2)
	chained.FlowTrace.MaxSpans = 16
	chained.FlowTrace.Admit(1)
	var seen int64
	staged := obs.NewRecorder()
	staged.Trace = obs.TraceFunc(func(ev *obs.Event) { seen += ev.Flow })
	for name, em := range map[string]*obs.Emitter{
		"ring": ring.Emitter(), "ring+flowtrace": chained.SwitchEmitter(), "staged": staged.Emitter(),
	} {
		f := emitOne(em)
		for i := 0; i < 100; i++ { // fill the ring and the flow's span ring
			f()
		}
		if allocs := testing.AllocsPerRun(1000, f); allocs != 0 {
			t.Errorf("%s: emitting allocates %v per event, want 0", name, allocs)
		}
	}
	if ring.Flight.Total() != 1101 || chained.Flight.Total() != 1101 {
		t.Errorf("rings recorded %d and %d events, want 1101 each", ring.Flight.Total(), chained.Flight.Total())
	}
	if chained.FlowTrace.Log(1).Len() != 16 || seen == 0 {
		t.Error("events did not reach the flow tracer / the staged sink")
	}
}
