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
	// The flow tracer behind the ring sees every switch event, by pointer
	// into the ring: a sampled flow's drops all become spans.
	r := obs.NewRecorder()
	r.Flight = obs.NewFlightRecorder(2)
	r.FlowTrace = obs.NewFlowTracer(1)
	fl := r.FlowTrace.Admit(7)
	em := r.SwitchEmitter()
	for i := 0; i < 5; i++ {
		ev := em.Next()
		*ev = obs.Event{T: sim.Time(i), Kind: obs.Drop, Dev: flightDevs.ID("tor0"), Flow: 7, Seq: int64(i)}
		em.Emit(ev)
	}
	var seqs []int64
	fl.Spans(func(sp obs.Span) { seqs = append(seqs, sp.Seq) })
	if !reflect.DeepEqual(seqs, []int64{0, 1, 2, 3, 4}) {
		t.Errorf("flow tracer spans for seqs %v, want 0..4", seqs)
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
	w := &obs.Watchdog{MaxInflightBytes: 100}
	if w.Check(50, 0) {
		t.Error("Check below ceiling reported tripped")
	}
	if w.Tripped() != "" {
		t.Error("Tripped before any trip")
	}
	if !w.Check(150, 0) {
		t.Error("Check above ceiling did not trip")
	}
	if !w.Check(10, 1<<40) {
		t.Error("watchdog un-tripped: trips must latch")
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
	// No flight, no flow tracer: nil emitters.
	r := obs.NewRecorder()
	if r.Emitter() != nil || r.SwitchEmitter() != nil {
		t.Error("Emitter() non-nil with nothing configured")
	}
	emit := func(em *obs.Emitter, i int) {
		ev := em.Next()
		*ev = obs.Event{Kind: obs.Mark, Flow: 1, Seq: int64(i)}
		em.Emit(ev)
	}
	// Flow tracer only: ports get no emitter, and events staged in the
	// switch emitter reach the tracer.
	r.FlowTrace = obs.NewFlowTracer(1)
	fl := r.FlowTrace.Admit(1)
	if r.Emitter() != nil {
		t.Error("Emitter() non-nil with only a flow tracer: ports would pay for it")
	}
	emit(r.SwitchEmitter(), 1)
	if fl.Len() != 1 {
		t.Fatal("staged SwitchEmitter() did not reach the flow tracer")
	}
	// Flight + flow tracer: ring in front, events reach both.
	r.Flight = obs.NewFlightRecorder(4)
	emit(r.SwitchEmitter(), 2)
	if fl.Len() != 2 {
		t.Error("chained SwitchEmitter() did not forward to the flow tracer")
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
// slot, a ring slot forwarded to the flow tracer, or the emitter's staging
// record in front of the flow tracer alone.
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
	chained.FlowTrace.SetMaxSpans(16)
	chained.FlowTrace.Admit(1)
	staged := obs.NewRecorder()
	staged.FlowTrace = obs.NewFlowTracer(2)
	staged.FlowTrace.SetMaxSpans(16)
	staged.FlowTrace.Admit(1)
	for name, em := range map[string]*obs.Emitter{
		"ring": ring.Emitter(), "ring+flowtrace": chained.SwitchEmitter(), "staged": staged.SwitchEmitter(),
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
	if chained.FlowTrace.Log(1).Len() != 16 || staged.FlowTrace.Log(1).Len() != 16 {
		t.Error("events did not reach the chained / the staged flow tracer")
	}
}
