package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Artifact is the on-disk record of one run's telemetry: metric snapshot,
// time series, and histogram summaries, serialized as JSONL (one typed
// record per line) so large timelines stream without a giant in-memory
// document. WriteArtifact emits it after a run; ReadArtifact loads it back
// for `prioplus-sim report`. The format is defined by encoding/json applied
// to the artifactMeta and artifactLine shapes below; the reader decodes with
// it, while the writer — a traced run is over a hundred thousand lines —
// appends the same bytes by hand (see WriteArtifact).
//
// Line types:
//
//	{"type":"meta","v":2,"run":...,"interval_us":...,"start_us":...,"watchdog":...,"fp":...,"fp_events":N}
//	{"type":"sample","i":0,"t_us":...,"v":[...]}          // one per tick
//	{"type":"hist","name":...,"unit":...,"count":...,...}  // one per histogram
//	{"type":"metric","name":...,"v":...}                   // one per metric
//	{"type":"fault","t_us":...,"kind":...,"dev":...,"port":N} // one per fault event
//	{"type":"flow","flow":...,"spans":N,"dropped":D}       // one per traced flow
//	{"type":"span","flow":...,"t_us":...,"kind":...,...}   // one per span
//	{"type":"ckpt","n":...,"t_us":...,"h":"<16-hex>"}      // one per digest checkpoint
//
// The meta line declares the series column order; every sample line's "v"
// array aligns with it. Span lines follow their flow line, in recording
// order (not globally time-sorted; renderers sort by t_us).
//
// Versioning: the meta line carries a schema version ("v", see
// ArtifactVersion). Readers must tolerate forward evolution — unknown JSON
// fields are ignored (encoding/json semantics) and unknown line types are
// skipped, counted in Artifact.Unknown — so streamed and on-disk artifacts
// from newer writers still load.
type Artifact struct {
	Run         string
	Version     int // meta-line schema version; 0 for pre-versioned artifacts
	Unknown     int // lines with an unrecognized type, skipped on read
	IntervalUS  float64
	StartUS     float64
	Watchdog    string // watchdog trip reason, "" when healthy
	Fingerprint string // final digest chain (16 hex digits), "" when off
	FPEvents    uint64 // events folded into the fingerprint
	Series      []ArtifactSeries
	Hists       []ArtifactHist
	Metrics     []ArtifactMetric
	Faults      []ArtifactFault
	Flows       []ArtifactFlow
	Ckpts       []ArtifactCkpt
}

// ArtifactCkpt is one digest checkpoint: the chain value after N events
// with the simulated clock at TUS. prioplus-sim diff aligns two runs'
// checkpoints by N to localize the first divergent event window.
type ArtifactCkpt struct {
	N     uint64  // dispatched events folded so far
	TUS   float64 // simulated time of the N-th event
	Chain string  // chain hash after it, 16 hex digits
}

// ArtifactFault is one executed fault event (link flap edge or reboot).
type ArtifactFault struct {
	TUS  float64
	Kind string
	Dev  string
	Port int
}

// ArtifactSeries is one reconstructed time-series column.
type ArtifactSeries struct {
	Name string    `json:"name"`
	Unit string    `json:"unit"`
	V    []float64 `json:"-"`
}

// ArtifactHist is one histogram summary.
type ArtifactHist struct {
	Name    string     `json:"name"`
	Unit    string     `json:"unit"`
	Count   int64      `json:"count"`
	Mean    float64    `json:"mean"`
	Min     int64      `json:"min"`
	Max     int64      `json:"max"`
	P50     int64      `json:"p50"`
	P90     int64      `json:"p90"`
	P99     int64      `json:"p99"`
	P999    int64      `json:"p999"`
	Buckets [][3]int64 `json:"buckets,omitempty"` // [lo, hi, count]
}

// ArtifactMetric is one end-of-run metric value.
type ArtifactMetric struct {
	Name string  `json:"name"`
	V    float64 `json:"v"`
}

// ArtifactFlow is one traced flow's reconstructed timeline.
type ArtifactFlow struct {
	ID      int64
	Dropped int64 // spans lost to ring overflow
	Spans   []ArtifactSpan
}

// ArtifactSpan is one serialized timeline span; field semantics follow the
// SpanKind documentation in flowtrace.go.
type ArtifactSpan struct {
	TUS     float64
	Kind    string
	Seq     int64
	DelayUS float64
	Dev     string
	A, B    float64
}

// ArtifactVersion is the schema version stamped on every meta line ("v").
// Bump it when a change would confuse an old reader; additive fields and
// new line types do not require a bump (readers skip what they don't know).
// v2 added the execution fingerprint: "fp"/"fp_events" on the meta line
// and "ckpt" checkpoint lines.
const ArtifactVersion = 2

// artifactMeta is the meta line's own shape. It is separate from
// artifactLine because both use the "v" key — schema version here, the
// sample value array there.
type artifactMeta struct {
	Type       string           `json:"type"`
	V          int              `json:"v"`
	Run        string           `json:"run,omitempty"`
	IntervalUS float64          `json:"interval_us,omitempty"`
	StartUS    float64          `json:"start_us,omitempty"`
	Watchdog   string           `json:"watchdog,omitempty"`
	FP         string           `json:"fp,omitempty"`
	FPEvents   uint64           `json:"fp_events,omitempty"`
	Series     []ArtifactSeries `json:"series,omitempty"`
}

type artifactLine struct {
	Type       string           `json:"type"`
	Run        string           `json:"run,omitempty"`
	IntervalUS float64          `json:"interval_us,omitempty"`
	StartUS    float64          `json:"start_us,omitempty"`
	Watchdog   string           `json:"watchdog,omitempty"`
	Series     []ArtifactSeries `json:"series,omitempty"`
	I          int              `json:"i,omitempty"`
	TUS        float64          `json:"t_us,omitempty"`
	V          []float64        `json:"v,omitempty"`
	Hist       *ArtifactHist    `json:"hist,omitempty"`
	Metric     *ArtifactMetric  `json:"metric,omitempty"`
	Flow       int64            `json:"flow,omitempty"`
	Spans      int              `json:"spans,omitempty"`
	Dropped    int64            `json:"dropped,omitempty"`
	Kind       string           `json:"kind,omitempty"`
	Seq        int64            `json:"seq,omitempty"`
	DelayUS    float64          `json:"delay_us,omitempty"`
	Dev        string           `json:"dev,omitempty"`
	Port       int              `json:"port,omitempty"`
	A          float64          `json:"a,omitempty"`
	B          float64          `json:"b,omitempty"`
	N          uint64           `json:"n,omitempty"`
	H          string           `json:"h,omitempty"`
}

// WriteArtifact serializes a run's telemetry to w. Series, histograms, and
// metrics are each optional: whatever the recorder has enabled is emitted.
//
// Lines are appended with strconv into one reused buffer: a traced run
// writes over a hundred thousand span lines, and reflecting over a
// 23-field omitempty struct for each cost a tenth of a faultsweep run. The
// bytes are exactly what encoding/json produced for the artifactMeta and
// artifactLine shapes below (same field order, same omitempty omissions —
// so tick 0's sample line has no "i" — same float and string forms); the
// reflection encoder survives in the tests as the oracle for that. The
// sample lines come from the series set, which encoded each as its tick was
// taken; a value there with no JSON form ends the artifact after the lines
// before it, with the error.
func WriteArtifact(w io.Writer, run string, rec *Recorder) error {
	e := &lineEncoder{w: w, b: make([]byte, 0, encoderFlushAt+4096)}

	e.raw(`{"type":"meta","v":`)
	e.int(ArtifactVersion)
	e.optString(`,"run":`, run)
	if rec.Series != nil {
		e.optFloat(`,"interval_us":`, rec.Series.Interval.Micros())
		e.optFloat(`,"start_us":`, rec.Series.Start.Micros())
	}
	if rec.Watchdog != nil {
		e.optString(`,"watchdog":`, rec.Watchdog.Tripped())
	}
	if rec.Digest != nil {
		e.raw(`,"fp":"`)
		e.hex16(rec.Digest.Chain)
		e.raw(`"`)
		e.optUint(`,"fp_events":`, rec.Digest.Count)
	}
	if rec.Series != nil && len(rec.Series.All()) > 0 {
		e.raw(`,"series":[`)
		for i, s := range rec.Series.All() {
			if i > 0 {
				e.raw(`,`)
			}
			e.raw(`{"name":`)
			e.string(s.Name)
			e.raw(`,"unit":`)
			e.string(s.Unit)
			e.raw(`}`)
		}
		e.raw(`]`)
	}
	if err := e.endLine(); err != nil {
		return err
	}

	if rec.Digest != nil {
		// Checkpoints go right after the meta line so diff can localize a
		// divergence window without scanning past a large series body.
		for _, c := range rec.Digest.Ckpts {
			e.raw(`{"type":"ckpt"`)
			e.optFloat(`,"t_us":`, c.Clock.Micros())
			e.optUint(`,"n":`, c.Count)
			e.raw(`,"h":"`)
			e.hex16(c.Chain)
			e.raw(`"`)
			if err := e.endLine(); err != nil {
				return err
			}
		}
	}
	if rec.Series != nil {
		// The sample lines were encoded as they were taken (Sample).
		if err := e.flush(); err != nil {
			return err
		}
		if err := rec.Series.writeLines(w); err != nil {
			return err
		}
	}
	if rec.Hist != nil {
		for _, h := range rec.Hist.All() {
			e.raw(`{"type":"hist","hist":{"name":`)
			e.string(h.Name)
			e.raw(`,"unit":`)
			e.string(h.Unit)
			e.raw(`,"count":`)
			e.int(h.Count())
			e.raw(`,"mean":`)
			e.float(h.Mean())
			e.raw(`,"min":`)
			e.int(h.Min())
			e.raw(`,"max":`)
			e.int(h.Max())
			e.raw(`,"p50":`)
			e.int(h.Quantile(0.50))
			e.raw(`,"p90":`)
			e.int(h.Quantile(0.90))
			e.raw(`,"p99":`)
			e.int(h.Quantile(0.99))
			e.raw(`,"p999":`)
			e.int(h.Quantile(0.999))
			first := true
			h.Buckets(func(lo, hi, count int64) {
				if first {
					e.raw(`,"buckets":[[`)
					first = false
				} else {
					e.raw(`,[`)
				}
				e.int(lo)
				e.raw(`,`)
				e.int(hi)
				e.raw(`,`)
				e.int(count)
				e.raw(`]`)
			})
			if !first {
				e.raw(`]`)
			}
			e.raw(`}`)
			if err := e.endLine(); err != nil {
				return err
			}
		}
	}
	if rec.Metrics != nil {
		for _, name := range rec.Metrics.order {
			v, _ := rec.Metrics.Value(name)
			e.raw(`{"type":"metric","metric":{"name":`)
			e.string(name)
			e.raw(`,"v":`)
			e.float(v)
			e.raw(`}`)
			if err := e.endLine(); err != nil {
				return err
			}
		}
	}
	if rec.Faults != nil {
		for _, ev := range rec.Faults.Events {
			e.raw(`{"type":"fault"`)
			e.optFloat(`,"t_us":`, ev.T.Micros())
			e.optString(`,"kind":`, ev.Kind)
			e.optString(`,"dev":`, ev.Dev)
			e.optInt(`,"port":`, int64(ev.Port))
			if err := e.endLine(); err != nil {
				return err
			}
		}
	}
	if rec.FlowTrace != nil {
		for _, fl := range rec.FlowTrace.Logs() {
			e.raw(`{"type":"flow"`)
			e.optInt(`,"flow":`, fl.Flow)
			e.optInt(`,"spans":`, int64(fl.Len()))
			e.optInt(`,"dropped":`, fl.Dropped)
			if err := e.endLine(); err != nil {
				return err
			}
			var spanErr error
			fl.Spans(func(sp Span) {
				if spanErr != nil {
					return
				}
				e.raw(`{"type":"span"`)
				e.optFloat(`,"t_us":`, sp.T.Micros())
				e.optInt(`,"flow":`, fl.Flow)
				e.optString(`,"kind":`, sp.Kind.String())
				e.optInt(`,"seq":`, sp.Seq)
				e.optFloat(`,"delay_us":`, sp.Delay.Micros())
				e.optString(`,"dev":`, sp.Dev)
				e.optFloat(`,"a":`, sp.A)
				e.optFloat(`,"b":`, sp.B)
				spanErr = e.endLine()
			})
			if spanErr != nil {
				return spanErr
			}
		}
	}
	return e.flush()
}

// encoderFlushAt is how many buffered bytes make lineEncoder write them out.
const encoderFlushAt = 1 << 16

// lineEncoder builds JSONL lines in one reused buffer and writes the buffer
// out whenever a finished line leaves it at least encoderFlushAt long; one
// with no writer (a SeriesSet's) only accumulates them. Each
// line starts with a raw `{"type":...` prefix and ends with endLine, which
// closes the object. Values print as encoding/json prints them.
type lineEncoder struct {
	w    io.Writer
	b    []byte // finished lines not yet written, then the line being built
	line int    // where the line being built starts in b
	err  error  // first unencodable value of the line being built
}

func (e *lineEncoder) raw(s string) { e.b = append(e.b, s...) }

func (e *lineEncoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

// hex16 appends v as 16 lower-case hex digits (fmt's %016x).
func (e *lineEncoder) hex16(v uint64) {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		e.b = append(e.b, digits[v>>uint(shift)&0xf])
	}
}

// float appends f in encoding/json's form: shortest round-trip digits, plain
// notation except below 1e-6 and from 1e21 up, where a negative exponent
// loses its leading zero (e-07 prints e-7). Whole numbers below 2^53 — most
// series values and every counter — take the integer path, whose digits are
// the same. NaN and the infinities have no JSON form: the line is abandoned
// and endLine reports them.
func (e *lineEncoder) float(f float64) {
	if i := int64(f); float64(i) == f && i > -1<<53 && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		e.b = strconv.AppendInt(e.b, i, 10)
		return
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("artifact: unsupported value %v", f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// string appends s quoted. Names, units, kinds and device labels are plain
// ASCII, which is copied; anything encoding/json would escape (quotes,
// backslashes, control bytes, the HTML-sensitive <>&, non-ASCII, invalid
// UTF-8) goes through encoding/json itself.
func (e *lineEncoder) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // cannot fail for a string
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// The opt* appenders are omitempty fields: key and value, or nothing when
// the value is its type's zero (for floats that includes -0, as in
// encoding/json).

func (e *lineEncoder) optString(key, s string) {
	if s != "" {
		e.raw(key)
		e.string(s)
	}
}

func (e *lineEncoder) optInt(key string, v int64) {
	if v != 0 {
		e.raw(key)
		e.int(v)
	}
}

func (e *lineEncoder) optUint(key string, v uint64) {
	if v != 0 {
		e.raw(key)
		e.b = strconv.AppendUint(e.b, v, 10)
	}
}

func (e *lineEncoder) optFloat(key string, f float64) {
	if f != 0 {
		e.raw(key)
		e.float(f)
	}
}

// endLine closes the line's object. A line that held an unencodable value
// is dropped whole and the error returned: what is written is always valid
// JSONL.
func (e *lineEncoder) endLine() error {
	if e.err != nil {
		e.b = e.b[:e.line]
		return e.err
	}
	e.b = append(e.b, '}', '\n')
	e.line = len(e.b)
	if e.w != nil && e.line >= encoderFlushAt {
		return e.flush()
	}
	return nil
}

// flush writes the finished lines out.
func (e *lineEncoder) flush() error {
	_, err := e.w.Write(e.b[:e.line])
	e.b = e.b[:0]
	e.line = 0
	return err
}

// ReadArtifact parses an artifact stream written by WriteArtifact,
// reassembling the per-sample rows into per-series columns.
func ReadArtifact(r io.Reader) (*Artifact, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	art := &Artifact{}
	n := 0
	for sc.Scan() {
		n++
		if len(sc.Bytes()) == 0 {
			continue
		}
		// The "v" key is polymorphic (version on meta, value array on
		// sample), so the type decides the shape to decode into. Unknown
		// types and unknown fields are skipped, not errors: artifacts from
		// newer writers must stay readable.
		typ, err := lineType(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("artifact line %d: %w", n, err)
		}
		if string(typ) == "meta" {
			var m artifactMeta
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				return nil, fmt.Errorf("artifact line %d: %w", n, err)
			}
			art.Run = m.Run
			art.Version = m.V
			art.IntervalUS = m.IntervalUS
			art.StartUS = m.StartUS
			art.Watchdog = m.Watchdog
			art.Fingerprint = m.FP
			art.FPEvents = m.FPEvents
			art.Series = m.Series
			continue
		}
		switch string(typ) {
		case "sample", "hist", "metric", "fault", "flow", "span", "ckpt":
		default:
			// A line type from a newer writer: skip it without attempting
			// to decode (its fields may not fit this schema), keep count.
			// Only its syntax is checked, as for every other line.
			if !json.Valid(sc.Bytes()) {
				return nil, fmt.Errorf("artifact line %d: invalid JSON", n)
			}
			art.Unknown++
			continue
		}
		var line artifactLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("artifact line %d: %w", n, err)
		}
		switch string(typ) {
		case "sample":
			if len(line.V) != len(art.Series) {
				return nil, fmt.Errorf("artifact line %d: sample has %d values for %d series", n, len(line.V), len(art.Series))
			}
			for j := range line.V {
				art.Series[j].V = append(art.Series[j].V, line.V[j])
			}
		case "hist":
			if line.Hist != nil {
				art.Hists = append(art.Hists, *line.Hist)
			}
		case "metric":
			if line.Metric != nil {
				art.Metrics = append(art.Metrics, *line.Metric)
			}
		case "fault":
			art.Faults = append(art.Faults, ArtifactFault{
				TUS: line.TUS, Kind: line.Kind, Dev: line.Dev, Port: line.Port,
			})
		case "flow":
			art.Flows = append(art.Flows, ArtifactFlow{ID: line.Flow, Dropped: line.Dropped})
			if line.Spans > 0 {
				art.Flows[len(art.Flows)-1].Spans = make([]ArtifactSpan, 0, line.Spans)
			}
		case "span":
			fl := art.flow(line.Flow)
			if fl == nil {
				return nil, fmt.Errorf("artifact line %d: span for undeclared flow %d", n, line.Flow)
			}
			fl.Spans = append(fl.Spans, ArtifactSpan{
				TUS: line.TUS, Kind: line.Kind, Seq: line.Seq,
				DelayUS: line.DelayUS, Dev: line.Dev, A: line.A, B: line.B,
			})
		case "ckpt":
			art.Ckpts = append(art.Ckpts, ArtifactCkpt{N: line.N, TUS: line.TUS, Chain: line.H})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return art, nil
}

// lineType returns an artifact line's "type". WriteArtifact always emits it
// first, so the common case reads it off the `{"type":"…"` prefix and the
// line is decoded once, into its own shape; a line from a foreign writer
// (key order, spacing or escapes that differ) is probed with a full decode.
// The result aliases line in the common case.
func lineType(line []byte) ([]byte, error) {
	const prefix = `{"type":"`
	if bytes.HasPrefix(line, []byte(prefix)) {
		rest := line[len(prefix):]
		if i := bytes.IndexAny(rest, `"\\`); i >= 0 && rest[i] == '"' {
			return rest[:i], nil
		}
	}
	var probe struct {
		Type string `json:"type"`
	}
	err := json.Unmarshal(line, &probe)
	return []byte(probe.Type), err
}

// flow returns the declared flow record with the given ID, nil if absent.
// Writers emit span lines right after their flow line, so the linear scan
// almost always hits the last element.
func (a *Artifact) flow(id int64) *ArtifactFlow {
	for i := len(a.Flows) - 1; i >= 0; i-- {
		if a.Flows[i].ID == id {
			return &a.Flows[i]
		}
	}
	return nil
}

// TimeAtUS returns the microsecond timestamp of sample i.
func (a *Artifact) TimeAtUS(i int) float64 {
	return a.StartUS + float64(i+1)*a.IntervalUS
}
