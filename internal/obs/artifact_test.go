package obs_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// TestJSONLSinkEscapesStrings is the round-trip contract for string fields
// in trace output: arbitrary device labels — quotes, backslashes, control
// characters, non-ASCII — must come back intact through a JSON decoder.
func TestJSONLSinkEscapesStrings(t *testing.T) {
	devs := []string{
		`plain`,
		`quo"te`,
		`back\slash`,
		"tab\there",
		"new\nline",
		"cr\rreturn",
		"ctrl\x01\x1f",
		"utf8-Ω-切替",
		`both"\and` + "\n\x02",
	}
	var buf bytes.Buffer
	var table obs.DevTable
	sink := obs.NewJSONLSink(&buf, &table)
	for i, dev := range devs {
		sink.Trace(&obs.Event{T: sim.Time(i + 1), Kind: obs.Enqueue, Dev: table.ID(dev), Bytes: 1})
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != len(devs) {
		t.Fatalf("got %d lines, want %d", len(lines), len(devs))
	}
	for i, line := range lines {
		var rec struct {
			Dev string `json:"dev"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Errorf("line %d is not valid JSON: %v\n%s", i, err, line)
			continue
		}
		if rec.Dev != devs[i] {
			t.Errorf("line %d dev = %q, want %q", i, rec.Dev, devs[i])
		}
	}
}

func sampleRecorder(t *testing.T) *obs.Recorder {
	t.Helper()
	rec := obs.NewRecorder()
	rec.Series = obs.NewSeriesSet(10 * sim.Microsecond)
	rec.Series.Start = 2 * sim.Microsecond
	v := 0.0
	rec.Series.Add("net/inflight_bytes", "bytes", func() float64 { return v })
	rec.Series.Add("net/paused_queues", "queues", func() float64 { return 2 * v })
	for i := 0; i < 5; i++ {
		v = float64(i * 100)
		rec.Series.Sample()
	}
	rec.Hist = obs.NewHistSet()
	for _, d := range []int64{100, 200, 400, 100000} {
		rec.Hist.FabricDelay.Observe(d)
	}
	rec.Metrics.Counter("net/drops").Add(7)
	rec.Metrics.Gauge("net/buffer_hwm_bytes").Observe(1234)
	rec.Watchdog = &obs.Watchdog{MaxInflightBytes: 1}
	rec.Watchdog.Check(2, 0) // trip it, so the artifact carries the reason
	return rec
}

func TestArtifactRoundTrip(t *testing.T) {
	rec := sampleRecorder(t)
	var buf bytes.Buffer
	if err := obs.WriteArtifact(&buf, `run "A"/np=8`, rec); err != nil {
		t.Fatal(err)
	}
	a, err := obs.ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Run != `run "A"/np=8` {
		t.Errorf("Run = %q", a.Run)
	}
	if a.Watchdog != "inflight_bytes" {
		t.Errorf("Watchdog = %q, want inflight_bytes", a.Watchdog)
	}
	if a.IntervalUS != 10 || a.StartUS != 2 {
		t.Errorf("IntervalUS/StartUS = %v/%v, want 10/2", a.IntervalUS, a.StartUS)
	}
	if len(a.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(a.Series))
	}
	if a.Series[0].Name != "net/inflight_bytes" || a.Series[0].Unit != "bytes" {
		t.Errorf("series 0 identity = %q/%q", a.Series[0].Name, a.Series[0].Unit)
	}
	want0 := []float64{0, 100, 200, 300, 400}
	want1 := []float64{0, 200, 400, 600, 800}
	if !reflect.DeepEqual(a.Series[0].V, want0) || !reflect.DeepEqual(a.Series[1].V, want1) {
		t.Errorf("series values = %v / %v, want %v / %v", a.Series[0].V, a.Series[1].V, want0, want1)
	}
	if got := a.TimeAtUS(0); got != 12 {
		t.Errorf("TimeAtUS(0) = %v, want 12", got)
	}

	if len(a.Hists) != 3 {
		t.Fatalf("got %d hists, want 3", len(a.Hists))
	}
	fd := a.Hists[1]
	if fd.Name != "transport/fabric_delay" || fd.Count != 4 || fd.Min != 100 || fd.Max != 100000 {
		t.Errorf("fabric_delay summary = %+v", fd)
	}
	if math.Abs(fd.Mean-25175) > 1e-9 {
		t.Errorf("fabric_delay mean = %v, want 25175", fd.Mean)
	}
	if len(fd.Buckets) == 0 {
		t.Error("fabric_delay has no buckets in the artifact")
	}
	var n int64
	for _, b := range fd.Buckets {
		n += b[2]
	}
	if n != 4 {
		t.Errorf("bucket counts sum to %d, want 4", n)
	}

	if len(a.Metrics) != 2 {
		t.Fatalf("got %d metrics, want 2", len(a.Metrics))
	}
	if a.Metrics[0].Name != "net/drops" || a.Metrics[0].V != 7 {
		t.Errorf("metric 0 = %+v", a.Metrics[0])
	}
	if a.Metrics[1].Name != "net/buffer_hwm_bytes" || a.Metrics[1].V != 1234 {
		t.Errorf("metric 1 = %+v", a.Metrics[1])
	}
}

func TestArtifactDeterministicBytes(t *testing.T) {
	// The artifact encoding itself must be byte-stable: two identical
	// recorders produce identical files (this is what lets the batch runner
	// promise byte-identical artifacts for any -parallel).
	var a, b bytes.Buffer
	if err := obs.WriteArtifact(&a, "x", sampleRecorder(t)); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteArtifact(&b, "x", sampleRecorder(t)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical recorders produced different artifact bytes")
	}
}

func TestReadArtifactRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad json":       "{not json}\n",
		"column mm":      `{"type":"meta","series":[{"name":"a","unit":"x"}]}` + "\n" + `{"type":"sample","i":0,"v":[1,2]}` + "\n",
		"sample no meta": `{"type":"sample","i":0,"v":[1]}` + "\n",
	}
	for name, in := range cases {
		if _, err := obs.ReadArtifact(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadArtifact accepted malformed input", name)
		}
	}
}

func TestReadArtifactForwardCompatible(t *testing.T) {
	// Artifacts from a newer writer must still load: unknown line types
	// are skipped (and counted), unknown fields on known line types are
	// ignored, and the meta version is surfaced. The "v" key on unknown
	// lines may even have a foreign shape.
	in := `{"type":"meta","v":7,"run":"future","series":[{"name":"a","unit":"x"}],"novel_field":true}` + "\n" +
		`{"type":"sample","i":0,"t_us":1,"v":[42],"extra":"ignored"}` + "\n" +
		`{"type":"mystery","v":3.5,"payload":{"nested":[1,2,3]}}` + "\n" +
		`{"type":"metric","metric":{"name":"net/drops","v":7}}` + "\n"
	a, err := obs.ReadArtifact(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadArtifact: %v", err)
	}
	if a.Version != 7 {
		t.Errorf("Version = %d, want 7", a.Version)
	}
	if a.Unknown != 1 {
		t.Errorf("Unknown = %d, want 1", a.Unknown)
	}
	if a.Run != "future" || len(a.Series) != 1 || len(a.Series[0].V) != 1 || a.Series[0].V[0] != 42 {
		t.Errorf("known lines misparsed: %+v", a)
	}
	if len(a.Metrics) != 1 || a.Metrics[0].V != 7 {
		t.Errorf("metric line misparsed: %+v", a.Metrics)
	}
}

// TestReadArtifactForeignWriter: the reader takes a line's type from the
// `{"type":"…"` prefix WriteArtifact always emits, but a writer with other
// habits — spaces, another key order, an escaped type — must read the same,
// through the full-decode probe. A skipped line is still syntax-checked.
func TestReadArtifactForeignWriter(t *testing.T) {
	in := `{ "type" : "meta", "v": 2, "run": "foreign", "series": [{"name":"a","unit":"x"}] }` + "\n" +
		`{"i":0,"t_us":1,"v":[42],"type":"sample"}` + "\n" +
		`{"type":"metri\u0063","metric":{"name":"net/drops","v":7}}` + "\n" +
		`{"v":{"nested":true},"type":"mystery"}` + "\n" +
		`{"type":"flow","flow":3,"spans":1}` + "\n" +
		`{"type":"span","flow":3,"kind":"hop","t_us":2.5}` + "\n"
	a, err := obs.ReadArtifact(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadArtifact: %v", err)
	}
	if a.Run != "foreign" || a.Version != 2 || a.Unknown != 1 {
		t.Errorf("run %q version %d unknown %d, want foreign/2/1", a.Run, a.Version, a.Unknown)
	}
	if len(a.Series) != 1 || len(a.Series[0].V) != 1 || a.Series[0].V[0] != 42 {
		t.Errorf("sample line with trailing type misread: %+v", a.Series)
	}
	if len(a.Metrics) != 1 || a.Metrics[0].V != 7 {
		t.Errorf("metric line with escaped type misread: %+v", a.Metrics)
	}
	if len(a.Flows) != 1 || len(a.Flows[0].Spans) != 1 || a.Flows[0].Spans[0].TUS != 2.5 {
		t.Errorf("flow/span lines misread: %+v", a.Flows)
	}
	for name, bad := range map[string]string{
		"unknown type, broken syntax": `{"type":"mystery","x":[}` + "\n",
		"known type, broken syntax":   `{"type":"span","flow":` + "\n",
		"prefix only":                 `{"type":"sample` + "\n",
	} {
		if _, err := obs.ReadArtifact(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestArtifactVersionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WriteArtifact(&buf, "x", sampleRecorder(t)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"type":"meta","v":2`) {
		t.Error("meta line missing schema version")
	}
	a, err := obs.ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != obs.ArtifactVersion {
		t.Errorf("Version = %d, want %d", a.Version, obs.ArtifactVersion)
	}
}

func TestArtifactCkptRoundTrip(t *testing.T) {
	rec := obs.NewRecorder()
	rec.Digest = sim.NewDigest()
	// Drive a tiny engine so the digest has a real chain and checkpoints.
	e := sim.NewEngine()
	e.SetDigest(rec.Digest)
	var tick func()
	tick = func() {
		if rec.Digest.Count < 3*sim.DigestCheckpointEvery {
			e.After(1, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	var buf bytes.Buffer
	if err := obs.WriteArtifact(&buf, "fp", rec); err != nil {
		t.Fatal(err)
	}
	a, err := obs.ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == "" || a.FPEvents != rec.Digest.Count {
		t.Fatalf("fingerprint meta missing: fp=%q events=%d (want %d)",
			a.Fingerprint, a.FPEvents, rec.Digest.Count)
	}
	if len(a.Ckpts) != len(rec.Digest.Ckpts) || len(a.Ckpts) == 0 {
		t.Fatalf("got %d ckpt lines, want %d", len(a.Ckpts), len(rec.Digest.Ckpts))
	}
	for i, c := range a.Ckpts {
		want := rec.Digest.Ckpts[i]
		if c.N != want.Count || len(c.Chain) != 16 {
			t.Fatalf("ckpt %d = %+v, want count %d", i, c, want.Count)
		}
	}
}

func TestReadArtifactEmptySeries(t *testing.T) {
	// A run shorter than one sampling interval emits a meta line with
	// series declared but zero sample lines; that must read back cleanly.
	rec := obs.NewRecorder()
	rec.Series = obs.NewSeriesSet(sim.Second)
	rec.Series.Add("a", "x", func() float64 { return 0 })
	var buf bytes.Buffer
	if err := obs.WriteArtifact(&buf, "short", rec); err != nil {
		t.Fatal(err)
	}
	a, err := obs.ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != 1 || len(a.Series[0].V) != 0 {
		t.Errorf("empty-series artifact read back as %+v", a.Series)
	}
}
