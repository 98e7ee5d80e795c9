package obs

import (
	"io"

	"prioplus/internal/sim"
)

// Series names one column of a SeriesSet: its position in All is its index
// in every sample line's "v" array.
type Series struct {
	// Name and Unit identify the series ("net/inflight_bytes", "bytes").
	Name string
	Unit string
}

// SeriesSet is a run's time-series sampler: a fixed sampling interval and
// an ordered set of series, each backed by a source function read at every
// tick. Install it via Recorder.Series and harness.Net.Observe, which
// drives Sample from the engine clock (sim.Engine.SetSampler); the set
// itself is engine-agnostic so tests can tick it directly.
//
// Each tick is kept only as the artifact's finished sample line, encoded
// when it is taken: a few hundred mostly-integer gauges take about a quarter
// of the bytes as text that they would as float64 columns, and only the
// artifact reads them. The lines accumulate in fixed-size chunks, so a long
// run neither regrows nor copies what it has sampled. Registration order is
// preserved, making artifact output deterministic. Sampling is zero-alloc
// in steady state apart from a new chunk every encoderFlushAt bytes.
type SeriesSet struct {
	// Interval is the simulated-time spacing between samples.
	Interval sim.Time
	// Start is the simulated time sampling began (set by the harness when
	// it installs the engine hook; samples land at Start+Interval, ...).
	Start sim.Time

	series  []*Series
	sources []func() float64
	ticks   int
	// full holds the filled chunks of sample lines; enc builds the next
	// lines into the open chunk, and keeps the first value with no JSON
	// form, after which no line is encoded.
	full [][]byte
	enc  lineEncoder
}

// NewSeriesSet returns an empty sampler with the given interval; interval
// must be positive.
func NewSeriesSet(interval sim.Time) *SeriesSet {
	if interval <= 0 {
		panic("obs: series interval must be positive")
	}
	return &SeriesSet{Interval: interval}
}

// Add registers a series backed by source. Sources must be cheap, read-only
// views of simulator state (a counter read, a queue-bytes field); they run
// at every tick. Register every series before the first Sample: a sample
// line holds one value per series registered when it was taken.
func (ss *SeriesSet) Add(name, unit string, source func() float64) {
	ss.series = append(ss.series, &Series{Name: name, Unit: unit})
	ss.sources = append(ss.sources, source)
}

// Reserve does nothing: the sample lines grow by fixed-size chunks and need
// no pre-sizing for n ticks. It is kept only because the benchmark's obs
// layer rig (benchmark/layers) calls it.
func (ss *SeriesSet) Reserve(n int) {}

// Sample reads every source once and appends the tick's sample line. A
// value with no JSON form (NaN, ±Inf) drops its line and ends the
// encoding; WriteArtifact reports it after the lines before.
func (ss *SeriesSet) Sample() {
	i := ss.ticks
	ss.ticks++
	e := &ss.enc
	if e.err != nil {
		return
	}
	if e.b == nil {
		e.b = make([]byte, 0, encoderFlushAt+4096)
	}
	e.raw(`{"type":"sample"`)
	e.optInt(`,"i":`, int64(i))
	e.optFloat(`,"t_us":`, ss.TimeAt(i).Micros())
	if len(ss.sources) > 0 {
		e.raw(`,"v":[`)
		for j, src := range ss.sources {
			if j > 0 {
				e.raw(`,`)
			}
			e.float(src())
		}
		e.raw(`]`)
	}
	if e.endLine() == nil && e.line >= encoderFlushAt {
		ss.full = append(ss.full, e.b)
		e.b, e.line = nil, 0
	}
}

// writeLines writes the sample lines taken so far to w, then returns the
// error of the value that ended them, if one did.
func (ss *SeriesSet) writeLines(w io.Writer) error {
	for _, chunk := range ss.full {
		if _, err := w.Write(chunk); err != nil {
			return err
		}
	}
	if _, err := w.Write(ss.enc.b[:ss.enc.line]); err != nil {
		return err
	}
	return ss.enc.err
}

// All returns the registered series in registration order.
func (ss *SeriesSet) All() []*Series { return ss.series }

// TimeAt returns the simulated time of sample i.
func (ss *SeriesSet) TimeAt(i int) sim.Time {
	return ss.Start + sim.Time(i+1)*ss.Interval
}
