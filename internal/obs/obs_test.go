package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("net/drops")
	c.Add(3)
	c.Add(2)
	if got := c.Value(); got != 5 {
		t.Errorf("counter value = %v, want 5", got)
	}
	if c2 := r.Counter("net/drops"); c2 != c {
		t.Error("Counter did not return the existing counter")
	}

	g := r.Gauge("net/buffer_hwm_bytes")
	g.Observe(10)
	g.Observe(40)
	g.Observe(25)
	if g.Value() != 25 || g.Max() != 40 {
		t.Errorf("gauge value/max = %v/%v, want 25/40", g.Value(), g.Max())
	}

	if names := r.Names(); len(names) != 2 || names[0] != "net/drops" || names[1] != "net/buffer_hwm_bytes" {
		t.Errorf("Names() = %v, want registration order", names)
	}
	if v, ok := r.Value("net/drops"); !ok || v != 5 {
		t.Errorf("Value(net/drops) = %v,%v", v, ok)
	}
	// Gauges report their high-water mark through Value/Snapshot.
	if v, ok := r.Value("net/buffer_hwm_bytes"); !ok || v != 40 {
		t.Errorf("Value(gauge) = %v,%v, want max 40", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("Value(missing) reported ok")
	}
	snap := r.Snapshot()
	if snap["net/drops"] != 5 || snap["net/buffer_hwm_bytes"] != 40 {
		t.Errorf("Snapshot = %v", snap)
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("Gauge on a counter name did not panic")
		}
	}()
	r.Gauge("x")
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	var devs obs.DevTable
	sink := obs.NewJSONLSink(&buf, &devs)
	sink.Trace(&obs.Event{T: 1500, Kind: obs.Enqueue, Dev: devs.ID("tor0"), Port: 2, Queue: 1, Flow: 7, Seq: 3, Bytes: 1000, QLen: 4000})
	sink.Trace(&obs.Event{T: 2000, Kind: obs.Drop, Dev: devs.ID("tor0"), Port: 2, Bytes: 1000})
	sink.Trace(&obs.Event{T: sim.Time(3000), Kind: obs.FlowDone, Flow: 7, Bytes: 50_000, Seq: 123_456})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.Events != 3 {
		t.Errorf("Events = %d, want 3", sink.Events)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	// Every line must be valid JSON with the documented field names.
	var rec map[string]any
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("line 0 is not JSON: %v\n%s", err, lines[0])
	}
	want := map[string]any{
		"t_ps": 1500.0, "kind": "enq", "dev": "tor0", "port": 2.0,
		"q": 1.0, "flow": 7.0, "seq": 3.0, "bytes": 1000.0, "qlen": 4000.0,
	}
	for k, v := range want {
		if rec[k] != v {
			t.Errorf("line 0 %s = %v, want %v", k, rec[k], v)
		}
	}
	// Zero-valued fields are omitted to keep traces compact.
	rec = nil
	if err := json.Unmarshal(lines[1], &rec); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if rec["kind"] != "drop" {
		t.Errorf("line 1 kind = %v", rec["kind"])
	}
	for _, k := range []string{"q", "flow", "seq", "qlen"} {
		if _, present := rec[k]; present {
			t.Errorf("line 1 kept zero field %q: %s", k, lines[1])
		}
	}
	rec = nil
	if err := json.Unmarshal(lines[2], &rec); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if rec["kind"] != "fct" || rec["seq"] != 123456.0 {
		t.Errorf("line 2 = %v", rec)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[obs.Kind]string{
		obs.Enqueue: "enq", obs.Dequeue: "deq", obs.Drop: "drop",
		obs.Mark: "mark", obs.Pause: "pause", obs.Resume: "resume",
		obs.FlowDone: "fct",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestTraceFunc(t *testing.T) {
	var got []obs.Event
	var tr obs.Tracer = obs.TraceFunc(func(e *obs.Event) { got = append(got, *e) })
	tr.Trace(&obs.Event{Kind: obs.Mark})
	if len(got) != 1 || got[0].Kind != obs.Mark {
		t.Errorf("TraceFunc delivered %v", got)
	}
}

func TestRecorder(t *testing.T) {
	rec := obs.NewRecorder()
	if rec.Metrics == nil {
		t.Fatal("NewRecorder left Metrics nil")
	}
	if rec.Trace != nil {
		t.Error("NewRecorder should leave Trace nil (tracing is opt-in)")
	}
}
