package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"prioplus/internal/sim"
)

// writeArtifactReflect is the reflection encoder WriteArtifact replaced,
// kept as the oracle: the artifact format is, by definition, what
// encoding/json makes of artifactMeta and artifactLine. rows are the values
// rec's series sources returned, one row per tick: the set itself keeps
// only the lines it encoded, which are what is under test.
func writeArtifactReflect(w io.Writer, run string, rec *Recorder, rows [][]float64) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)

	meta := artifactMeta{Type: "meta", V: ArtifactVersion, Run: run}
	if rec.Watchdog != nil {
		meta.Watchdog = rec.Watchdog.Tripped()
	}
	if rec.Digest != nil {
		meta.FP = fmt.Sprintf("%016x", rec.Digest.Chain)
		meta.FPEvents = rec.Digest.Count
	}
	if rec.Series != nil {
		meta.IntervalUS = rec.Series.Interval.Micros()
		meta.StartUS = rec.Series.Start.Micros()
		for _, s := range rec.Series.All() {
			meta.Series = append(meta.Series, ArtifactSeries{Name: s.Name, Unit: s.Unit})
		}
	}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	if rec.Digest != nil {
		for _, c := range rec.Digest.Ckpts {
			line := artifactLine{
				Type: "ckpt", N: c.Count, TUS: c.Clock.Micros(),
				H: fmt.Sprintf("%016x", c.Chain),
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	if rec.Series != nil {
		for i, row := range rows {
			line := artifactLine{Type: "sample", I: i, TUS: rec.Series.TimeAt(i).Micros(), V: row}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	if rec.Hist != nil {
		for _, h := range rec.Hist.All() {
			sum := &ArtifactHist{
				Name: h.Name, Unit: h.Unit, Count: h.Count(), Mean: h.Mean(),
				Min: h.Min(), Max: h.Max(),
				P50: h.Quantile(0.50), P90: h.Quantile(0.90),
				P99: h.Quantile(0.99), P999: h.Quantile(0.999),
			}
			h.Buckets(func(lo, hi, count int64) {
				sum.Buckets = append(sum.Buckets, [3]int64{lo, hi, count})
			})
			if err := enc.Encode(artifactLine{Type: "hist", Hist: sum}); err != nil {
				return err
			}
		}
	}
	if rec.Metrics != nil {
		for _, name := range rec.Metrics.Names() {
			v, _ := rec.Metrics.Value(name)
			if err := enc.Encode(artifactLine{Type: "metric", Metric: &ArtifactMetric{Name: name, V: v}}); err != nil {
				return err
			}
		}
	}
	if rec.Faults != nil {
		for _, ev := range rec.Faults.Events {
			line := artifactLine{
				Type: "fault", TUS: ev.T.Micros(),
				Kind: ev.Kind, Dev: ev.Dev, Port: ev.Port,
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	if rec.FlowTrace != nil {
		for _, fl := range rec.FlowTrace.Logs() {
			head := artifactLine{Type: "flow", Flow: fl.Flow, Spans: fl.Len(), Dropped: fl.Dropped}
			if err := enc.Encode(head); err != nil {
				return err
			}
			var encErr error
			fl.Spans(func(sp Span) {
				if encErr != nil {
					return
				}
				encErr = enc.Encode(artifactLine{
					Type: "span", Flow: fl.Flow, TUS: sp.T.Micros(),
					Kind: sp.Kind.String(), Seq: sp.Seq, DelayUS: sp.Delay.Micros(),
					Dev: sp.Dev, A: sp.A, B: sp.B,
				})
			})
			if encErr != nil {
				return encErr
			}
		}
	}
	return bw.Flush()
}

// hostileStrings need every kind of escaping encoding/json applies.
var hostileStrings = []string{
	"plain", "", `quo"te`, `back\slash`, "<script>&amp;</script>", "tab\there",
	"nl\ncr\r", "ctrl\x00\x01\x1f\x7f", "bs\bff\f", "utf8-Ω-切替", "sep\u2028\u2029",
	"bad\xff\xfeutf8", "trunc\xe2\x82",
}

// regimeFloats cover every branch of the float form: zero and its negative,
// both exponent regimes and their edges, the integer path's limits, values
// that need all 17 digits, and negatives of each kind.
var regimeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 42, 1e-7, -1e-7, 9.999999e-7, 1e-6, 1.5e-6, 5e-324,
	1e20, 1e21, -1e21, 1.7976931348623157e308, 1 << 53, 1<<53 - 1, 1<<53 + 2, -(1 << 53),
	1e15 - 1, 1e15, 1e15 + 1, 0.1 + 0.2, -2.5, 1234.5678, 123456789.125, 1e-9, 3e-10,
}

// everyLineRecorder holds every line type the artifact has, with strings and
// floats from the hostile sets in every position that takes one. With
// series it also returns the values its sources returned, row per tick.
func everyLineRecorder(series bool) (*Recorder, [][]float64) {
	rec := NewRecorder()
	rec.Watchdog = &Watchdog{MaxInflightBytes: 1}
	rec.Watchdog.Check(2, 0)
	rec.Digest = sim.NewDigest()
	rec.Digest.Chain, rec.Digest.Count = 0x00ab54a98ceb1f0a, 3
	rec.Digest.Ckpts = append(rec.Digest.Ckpts,
		sim.Ckpt{Count: 1024, Clock: 1500 * sim.Nanosecond, Chain: 1},
		sim.Ckpt{Count: 0, Clock: 0, Chain: math.MaxUint64})
	var rows [][]float64
	if series {
		rec.Series = NewSeriesSet(10 * sim.Microsecond)
		rec.Series.Start = 2500 * sim.Nanosecond
		tick := 0
		for j, name := range hostileStrings {
			j := j
			rec.Series.Add(name, hostileStrings[len(hostileStrings)-1-j], func() float64 {
				v := regimeFloats[(tick*len(hostileStrings)+j)%len(regimeFloats)]
				rows[tick] = append(rows[tick], v)
				return v
			})
		}
		for ; tick < 5; tick++ { // tick 0 is the line without "i"
			rows = append(rows, nil)
			rec.Series.Sample()
		}
	}
	rec.Hist = NewHistSet()
	for _, d := range []int64{0, 1, 100, 200, 400, 100000, 1 << 40} {
		rec.Hist.FabricDelay.Observe(d)
	}
	for i, s := range hostileStrings {
		rec.Metrics.Counter("c/" + s).Add(regimeFloats[i])
		rec.Metrics.Gauge("g/" + s).Observe(regimeFloats[len(regimeFloats)-1-i])
		rec.Faults.Record(FaultEvent{T: sim.Time(i) * sim.Microsecond, Kind: s, Dev: s, Port: i - 1})
	}
	rec.FlowTrace = NewFlowTracer(3)
	for _, id := range []int64{0, 7, -9} { // flow 0 omits its "flow" key
		fl := rec.FlowTrace.Admit(id)
		for i, f := range regimeFloats {
			fl.Add(Span{
				T: sim.Time(i) * 1234567, Kind: SpanKind(i % 30), Seq: int64(i%3) * 1500,
				Delay: sim.Time(i%4) * 999, Dev: hostileStrings[i%len(hostileStrings)],
				A: f, B: regimeFloats[len(regimeFloats)-1-i],
			})
		}
	}
	rec.FlowTrace.Admit(-9).Dropped = 5
	return rec, rows
}

// TestArtifactBytesMatchEncodingJSON is the writer's contract: for a
// recorder holding every line type, hostile strings and floats from every
// regime, the hand-rolled encoder's bytes are the reflection encoder's.
func TestArtifactBytesMatchEncodingJSON(t *testing.T) {
	for _, series := range []bool{true, false} {
		for _, run := range hostileStrings {
			rec, rows := everyLineRecorder(series)
			var got, want bytes.Buffer
			if err := WriteArtifact(&got, run, rec); err != nil {
				t.Fatal(err)
			}
			if err := writeArtifactReflect(&want, run, rec, rows); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
				for i := range wl {
					if i >= len(gl) || !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("series=%v run=%q line %d differs:\n got %s\nwant %s", series, run, i+1, gl[min(i, len(gl)-1)], wl[i])
					}
				}
				t.Fatalf("series=%v run=%q: %d lines written, want %d", series, run, len(gl), len(wl))
			}
			for _, typ := range []string{"meta", "ckpt", "hist", "metric", "fault", "flow", "span"} {
				if !bytes.Contains(got.Bytes(), []byte(`{"type":"`+typ+`"`)) {
					t.Errorf("series=%v: no %s line in the artifact under test", series, typ)
				}
			}
			if series != bytes.Contains(got.Bytes(), []byte(`{"type":"sample","t_us":`)) {
				t.Errorf("series=%v: tick-0 sample line (no \"i\" key) presence is wrong", series)
			}
			// And it reads back.
			art, err := ReadArtifact(bytes.NewReader(got.Bytes()))
			if err != nil {
				t.Fatalf("ReadArtifact of own output: %v", err)
			}
			if art.Unknown != 0 || len(art.Flows) != 3 || len(art.Ckpts) != 2 {
				t.Errorf("read back %d unknown, %d flows, %d ckpts", art.Unknown, len(art.Flows), len(art.Ckpts))
			}
		}
	}
}

// TestArtifactRejectsNaNAndInf: a value with no JSON form is an error, the
// offending line is not written, and what was written is valid JSONL.
func TestArtifactRejectsNaNAndInf(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := NewRecorder()
		rec.Series = NewSeriesSet(sim.Microsecond)
		v := 1.0
		rec.Series.Add("a", "x", func() float64 { return v })
		rec.Series.Sample()
		v = bad
		rec.Series.Sample()
		var buf bytes.Buffer
		if err := WriteArtifact(&buf, "bad", rec); err == nil {
			t.Errorf("WriteArtifact accepted a %v series value", bad)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n")) {
			if len(line) > 0 && !json.Valid(line) {
				t.Errorf("%v left an invalid line behind: %s", bad, line)
			}
		}
		rec = NewRecorder()
		rec.Metrics.Counter("m").Add(bad)
		if err := WriteArtifact(io.Discard, "bad", rec); err == nil {
			t.Errorf("WriteArtifact accepted a %v metric", bad)
		}
	}
}

func encodeOne(f func(e *lineEncoder)) (string, error) {
	e := &lineEncoder{}
	f(e)
	return string(e.b), e.err
}

// FuzzArtifactFloat: the float form is encoding/json's for every float64.
func FuzzArtifactFloat(f *testing.F) {
	for _, v := range regimeFloats {
		f.Add(math.Float64bits(v))
	}
	f.Add(math.Float64bits(math.NaN()))
	f.Add(math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		got, err := encodeOne(func(e *lineEncoder) { e.float(v) })
		want, wantErr := json.Marshal(v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%v: error %v, encoding/json %v", v, err, wantErr)
		}
		if err == nil && got != string(want) {
			t.Fatalf("%v (bits %#x): wrote %s, encoding/json writes %s", v, bits, got, want)
		}
	})
}

// FuzzArtifactString: the string form is encoding/json's for every string.
func FuzzArtifactString(f *testing.F) {
	for _, s := range hostileStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, _ := encodeOne(func(e *lineEncoder) { e.string(s) })
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("%q: wrote %s, encoding/json writes %s", s, got, want)
		}
	})
}

// FuzzReadArtifact: the reader never panics on arbitrary bytes, and whatever
// WriteArtifact wrote from fuzz-chosen values reads back as those values.
func FuzzReadArtifact(f *testing.F) {
	var seed bytes.Buffer
	rec, _ := everyLineRecorder(true)
	if err := WriteArtifact(&seed, "seed", rec); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), "run", uint64(0), int64(7))
	f.Add([]byte(`{"type":"meta","v":7,"series":[{"name":"a","unit":"x"}]}`+"\n"+`{"type":"sample","v":[1]}`+"\n"+`{"type":"mystery","v":{}}`+"\n"), `r"\`, math.Float64bits(0.1), int64(0))
	f.Add([]byte(`{ "type" : "span", "flow": 3 }`), "", math.Float64bits(1e-9), int64(-1))
	f.Add([]byte("{\"type\":\"sp\\u0061n\",\"flow\":1}\n{not json}\n"), "x", math.Float64bits(-0.0), int64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, name string, bits uint64, id int64) {
		ReadArtifact(bytes.NewReader(data)) // must not panic; errors are fine

		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rec := NewRecorder()
		rec.Series = NewSeriesSet(sim.Microsecond)
		rec.Series.Add(name, name, func() float64 { return v })
		rec.Series.Sample()
		rec.Metrics.Counter(name).Add(v)
		rec.FlowTrace = NewFlowTracer(1)
		rec.FlowTrace.Admit(id).Add(Span{T: sim.Time(bits >> 12), Kind: SpanHop, Seq: id, Dev: name, A: v})
		var buf bytes.Buffer
		if err := WriteArtifact(&buf, name, rec); err != nil {
			t.Fatal(err)
		}
		art, err := ReadArtifact(&buf)
		if err != nil {
			t.Fatalf("ReadArtifact of WriteArtifact output: %v", err)
		}
		// Strings come back as encoding/json would return them (invalid
		// UTF-8 replaced), floats exactly.
		var wantName string
		q, _ := json.Marshal(name)
		json.Unmarshal(q, &wantName)
		wantSpan := ArtifactSpan{TUS: sim.Time(bits >> 12).Micros(), Kind: "hop", Seq: id, Dev: wantName, A: v}
		if art.Run != wantName || art.Unknown != 0 ||
			len(art.Series) != 1 || art.Series[0].Name != wantName || !reflect.DeepEqual(art.Series[0].V, []float64{v}) ||
			len(art.Metrics) != 1 || art.Metrics[0] != (ArtifactMetric{Name: wantName, V: v}) ||
			len(art.Flows) != 1 || art.Flows[0].ID != id || !reflect.DeepEqual(art.Flows[0].Spans, []ArtifactSpan{wantSpan}) {
			t.Fatalf("round trip of name %q value %v flow %d read back as %+v", name, v, id, art)
		}
	})
}

// fig10bSizedRecorder is the shape of a fig10b artifact with four traced
// flows: 81 series over 400 ticks, three histograms, ~650 metrics and
// lines×4 spans.
func fig10bSizedRecorder(spansPerFlow int) *Recorder {
	rec := NewRecorder()
	rec.Series = NewSeriesSet(10 * sim.Microsecond)
	for j := 0; j < 81; j++ {
		j := j
		rec.Series.Add(fmt.Sprintf("port/host%d:0/queue_bytes", j), "bytes", func() float64 { return float64(j * 1048) })
	}
	for i := 0; i < 400; i++ {
		rec.Series.Sample()
	}
	rec.Hist = NewHistSet()
	for d := int64(1); d < 1<<20; d += d/8 + 1 {
		rec.Hist.AckRTT.Observe(d)
	}
	for j := 0; j < 650; j++ {
		rec.Metrics.Counter(fmt.Sprintf("port/host%d:0/tx_bytes", j)).Add(float64(j) * 1e6)
	}
	rec.Digest = sim.NewDigest()
	rec.FlowTrace = NewFlowTracer(4)
	rec.FlowTrace.SetMaxSpans(spansPerFlow)
	for id := int64(1); id <= 4; id++ {
		fl := rec.FlowTrace.Admit(id)
		for i := 0; i < spansPerFlow; i++ {
			fl.Add(Span{
				T: sim.Time(i) * 83886, Kind: SpanKind(i % 3), Seq: int64(i) * 1000,
				Delay: sim.Time(i%50) * 12345, Dev: "star", A: float64(i % 9 * 1048), B: float64(i % 5),
			})
		}
	}
	return rec
}

// BenchmarkWriteArtifact: a fig10b-sized recorder with four traced flows
// encoded to io.Discard. allocs/op must not depend on the line count —
// TestWriteArtifactAllocsIndependentOfLines pins that.
func BenchmarkWriteArtifact(b *testing.B) {
	rec := fig10bSizedRecorder(5000)
	var n countingWriter
	if err := WriteArtifact(&n, "incast", rec); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteArtifact(io.Discard, "incast", rec); err != nil {
			b.Fatal(err)
		}
	}
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// TestWriteArtifactAllocsIndependentOfLines: ten times the span lines, the
// same number of allocations — nothing is boxed or grown per line.
func TestWriteArtifactAllocsIndependentOfLines(t *testing.T) {
	small, large := fig10bSizedRecorder(500), fig10bSizedRecorder(5000)
	allocs := func(rec *Recorder) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := WriteArtifact(io.Discard, "incast", rec); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(small), allocs(large)
	if a != b {
		t.Errorf("WriteArtifact allocates %v times for 2k spans and %v for 20k: per-line allocation", a, b)
	}
	if b > 32 {
		t.Errorf("WriteArtifact allocates %v times per artifact, want a handful (buffer, flow list, closures)", b)
	}
}
