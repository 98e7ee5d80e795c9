package obs

import "io"

// FlightRecorder keeps the last N trace events in a fixed-size ring. Unlike
// JSONLSink it costs no I/O while the run is healthy: events overwrite the
// oldest slot, and the ring is only read out when something goes wrong (a
// Watchdog trip, an audit violation). Devices reach it through an Emitter,
// which lets them fill the next slot in place; the ring is one preallocated
// pointer-free block (40 bytes a slot), so recording neither allocates nor
// gives the garbage collector anything to scan.
type FlightRecorder struct {
	buf   []Event // the whole ring, allocated once
	next  int     // slot the next event fills
	total int64
}

// NewFlightRecorder returns a ring holding the most recent size events.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		panic("obs: flight recorder size must be positive")
	}
	return &FlightRecorder{buf: make([]Event, size)}
}

// slot returns the slot the next event fills; advance retires it.
func (f *FlightRecorder) slot() *Event { return &f.buf[f.next] }

func (f *FlightRecorder) advance() {
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
	}
	f.total++
}

// Trace implements Tracer by copying the event into the ring, for callers
// that hold a finished Event; devices fill the slot directly (see Emitter).
func (f *FlightRecorder) Trace(ev *Event) {
	*f.slot() = *ev
	f.advance()
}

// Total returns the number of events recorded over the ring's lifetime
// (including overwritten ones).
func (f *FlightRecorder) Total() int64 { return f.total }

// Events returns the retained events, oldest first.
func (f *FlightRecorder) Events() []Event {
	if f.total < int64(len(f.buf)) {
		return append([]Event(nil), f.buf[:f.next]...)
	}
	out := make([]Event, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	return append(out, f.buf[:f.next]...)
}

// Dump writes the retained events to w as JSONL (same schema as JSONLSink,
// device names resolved through devs), oldest first, and returns the number
// written.
func (f *FlightRecorder) Dump(w io.Writer, devs *DevTable) (int, error) {
	sink := NewJSONLSink(w, devs)
	evs := f.Events()
	for i := range evs {
		sink.Trace(&evs[i])
	}
	return len(evs), sink.Flush()
}

// Watchdog trips when a run's resource gauges exceed configured ceilings.
// It exists for runs like fig18's "Physical* w/o CC", where an uncontrolled
// sender can grow in-flight state without bound: instead of the process
// dying on an OOM minutes later, the watchdog fires at a defined threshold,
// the flight recorder's recent events are dumped for diagnosis, and the run
// stops with partial results.
//
// The harness checks the watchdog at every sampler tick (simulated-time
// driven, so trips are deterministic and independent of wall clock or
// worker count).
type Watchdog struct {
	// MaxInflightBytes trips on the run's live packet bytes (every packet
	// currently held by queues, the event queue, or the network). 0 disables.
	MaxInflightBytes int64
	// MaxHeapEvents trips on the engine's pending-event count. 0 disables.
	MaxHeapEvents int64
	// OnTrip, when non-nil, runs once at the trip (dump the flight
	// recorder, write a note). The run is stopped after it returns unless
	// KeepRunning is set.
	OnTrip func(reason string, value, limit int64)
	// KeepRunning makes a trip record-and-continue instead of stopping the
	// run.
	KeepRunning bool

	tripped string
}

// Check evaluates the gauges, firing the trip logic the first time a
// ceiling is exceeded. It returns true while the watchdog is tripped.
func (w *Watchdog) Check(inflightBytes, heapEvents int64) bool {
	if w.tripped != "" {
		return true
	}
	switch {
	case w.MaxInflightBytes > 0 && inflightBytes > w.MaxInflightBytes:
		w.trip("inflight_bytes", inflightBytes, w.MaxInflightBytes)
	case w.MaxHeapEvents > 0 && heapEvents > w.MaxHeapEvents:
		w.trip("heap_events", heapEvents, w.MaxHeapEvents)
	}
	return w.tripped != ""
}

func (w *Watchdog) trip(reason string, value, limit int64) {
	w.tripped = reason
	if w.OnTrip != nil {
		w.OnTrip(reason, value, limit)
	}
}

// Tripped returns the trip reason ("inflight_bytes", "heap_events"), or ""
// while the watchdog is healthy.
func (w *Watchdog) Tripped() string { return w.tripped }
