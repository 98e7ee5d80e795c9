package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"

	"prioplus/internal/sim"
)

// Kind identifies what a trace Event records.
type Kind uint8

// Event kinds. Enqueue/Dequeue/Drop/Mark are per-packet switch and port
// events; Pause/Resume are PFC state transitions on an egress queue;
// FlowDone is a transport-level flow completion.
const (
	Enqueue Kind = iota
	Dequeue
	Drop
	Mark
	Pause
	Resume
	FlowDone
)

var kindNames = [...]string{"enq", "deq", "drop", "mark", "pause", "resume", "fct"}

// String returns the trace record kind's artifact label (enq, deq, drop, ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// DevID names a device in trace events: an index into the run's DevTable.
// The zero DevID is "no device" (flow completions have none).
type DevID uint16

// DevTable is one run's device-name table: trace events carry a DevID, and
// whatever renders them (JSONLSink, FlightRecorder.Dump, the flow tracer's
// drop/mark spans) resolves the name here. harness.Net.Observe fills the
// recorder's table before traffic starts, the way it fills sim.Digest.Names.
// The zero value is ready to use.
type DevTable struct {
	names []string // names[id-1]
	ids   map[string]DevID
}

// ID returns the id of the named device, assigning the next one on first
// use. The empty name is DevID 0. A run has at most 65535 traced devices;
// exceeding that panics at install time, before any event is recorded.
func (t *DevTable) ID(name string) DevID {
	if name == "" {
		return 0
	}
	if id, ok := t.ids[name]; ok {
		return id
	}
	if len(t.names) == math.MaxUint16 {
		panic("obs: more than 65535 traced devices")
	}
	if t.ids == nil {
		t.ids = make(map[string]DevID)
	}
	t.names = append(t.names, name)
	id := DevID(len(t.names))
	t.ids[name] = id
	return id
}

// Name resolves an id assigned by ID; DevID 0, an id this table never
// assigned, and a nil table all resolve to "".
func (t *DevTable) Name(id DevID) string {
	if t == nil || id == 0 || int(id) > len(t.names) {
		return ""
	}
	return t.names[id-1]
}

// Event is one simulator occurrence: a compact, pointer-free record (40
// bytes) so a ring of them is invisible to the garbage collector and
// recording one is a handful of stores. Field meaning varies slightly by
// kind; unused fields are zero and omitted from the JSONL encoding:
//
//   - Enqueue/Dequeue/Drop/Mark: Dev/Port/Queue locate the egress queue,
//     Flow/Seq/Bytes identify the packet, QLen is the queue occupancy in
//     bytes after the event took effect.
//   - Pause/Resume: Dev/Port/Queue locate the paused egress queue.
//   - FlowDone: Flow is the flow ID, Bytes its size (flows of 4 GiB and more
//     record 4 GiB-1), QLen its retransmit count, and Seq its FCT in
//     picoseconds.
type Event struct {
	T     sim.Time // simulated time, picoseconds
	Flow  int64
	Seq   int64
	Bytes uint32
	QLen  uint32
	Dev   DevID  // device, resolved through the run's DevTable
	Port  uint16 // port index within the device
	Queue uint8  // priority queue index
	Kind  Kind
}

// Tracer receives trace events. The record is lent, not given: it is a
// flight-ring slot or a staging record that a later event overwrites, so an
// implementation that keeps events copies them. Implementations are not safe
// for concurrent use; attach one tracer per run.
type Tracer interface {
	Trace(ev *Event)
}

// TraceFunc adapts a function to the Tracer interface.
type TraceFunc func(ev *Event)

// Trace implements Tracer.
func (f TraceFunc) Trace(ev *Event) { f(ev) }

// Emitter is the device end of a run's trace chain — what ports and switches
// hold. A device asks for the Next record, fills it in place and Emits it:
// the record is the flight ring's next slot when the run has a ring, the
// emitter's own staging record otherwise, and it is handed to the sink by
// pointer. Nothing on this path copies an Event through an interface or
// allocates. Obtain one from Recorder.Emitter or Recorder.SwitchEmitter.
type Emitter struct {
	ring  *FlightRecorder // nil without a flight recorder
	sink  Tracer          // downstream of the ring; nil when the ring is all there is
	stage Event           // the record to fill when there is no ring
}

// newEmitter returns nil when there is neither a ring nor a sink, so "no
// emitter" stays the single nil check the device hot paths test.
func newEmitter(ring *FlightRecorder, sink Tracer) *Emitter {
	if ring == nil && sink == nil {
		return nil
	}
	return &Emitter{ring: ring, sink: sink}
}

// Next returns the record to fill for the next event. Every field must be
// set (the record still holds an older event); pass it to Emit before
// asking for another.
func (e *Emitter) Next() *Event {
	if e.ring != nil {
		return e.ring.slot()
	}
	return &e.stage
}

// Emit publishes the record Next returned.
func (e *Emitter) Emit(ev *Event) {
	if e.ring != nil {
		e.ring.advance()
	}
	if e.sink != nil {
		e.sink.Trace(ev)
	}
}

// JSONLSink streams events as one JSON object per line. Encoding is
// hand-rolled (no reflection) so tracing a multi-million-event run stays
// cheap; numeric fields that are zero are omitted. Call Flush before
// reading the output.
type JSONLSink struct {
	w    *bufio.Writer
	devs *DevTable
	buf  []byte

	// Events counts the records written.
	Events int64
}

// NewJSONLSink returns a sink writing JSONL records to w, resolving device
// ids through devs (the recorder's Devs table; with a nil table the "dev"
// field is omitted).
func NewJSONLSink(w io.Writer, devs *DevTable) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16), devs: devs}
}

// Trace implements Tracer.
func (s *JSONLSink) Trace(ev *Event) {
	b := s.buf[:0]
	b = append(b, `{"t_ps":`...)
	b = strconv.AppendInt(b, int64(ev.T), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	if dev := s.devs.Name(ev.Dev); dev != "" {
		b = append(b, `,"dev":`...)
		b = appendJSONString(b, dev)
	}
	b = appendField(b, `,"port":`, int64(ev.Port))
	b = appendField(b, `,"q":`, int64(ev.Queue))
	b = appendField(b, `,"flow":`, ev.Flow)
	b = appendField(b, `,"seq":`, ev.Seq)
	b = appendField(b, `,"bytes":`, int64(ev.Bytes))
	b = appendField(b, `,"qlen":`, int64(ev.QLen))
	b = append(b, '}', '\n')
	s.buf = b
	s.w.Write(b)
	s.Events++
}

func appendField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	b = append(b, key...)
	return strconv.AppendInt(b, v, 10)
}

// appendJSONString appends s as a quoted, escaped JSON string. Device names
// are plain ASCII in practice, so the common path is a straight copy, but
// arbitrary labels (quotes, backslashes, control bytes, non-ASCII) must
// still round-trip as valid JSON. Multi-byte UTF-8 sequences pass through
// untouched — JSON strings carry raw UTF-8.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(b, '"')
}

// Flush writes any buffered records to the underlying writer.
func (s *JSONLSink) Flush() error { return s.w.Flush() }
