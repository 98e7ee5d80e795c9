package obs

import "prioplus/internal/sim"

// Series is one fixed-interval time series: sample i was taken at
// simulated time Start + (i+1)*Interval of its owning SeriesSet. Values are
// appended by SeriesSet.Sample; the slice grows amortized, so a warm series
// samples without allocating.
type Series struct {
	// Name and Unit identify the series ("net/inflight_bytes", "bytes").
	Name string
	Unit string
	// V holds one value per sampling tick, in tick order.
	V []float64
}

// SeriesSet is a run's time-series sampler: a fixed sampling interval and
// an ordered set of series, each backed by a source function read at every
// tick. Install it via Recorder.Series and harness.Net.Observe, which
// drives Sample from the engine clock (sim.Engine.SetSampler); the set
// itself is engine-agnostic so tests can tick it directly.
//
// Registration order is preserved, making artifact output deterministic.
// Sampling is zero-alloc in steady state: sources are prebuilt closures and
// Append only reallocates on slice growth.
type SeriesSet struct {
	// Interval is the simulated-time spacing between samples.
	Interval sim.Time
	// Start is the simulated time sampling began (set by the harness when
	// it installs the engine hook; samples land at Start+Interval, ...).
	Start sim.Time

	series  []*Series
	sources []func() float64
	ticks   int
}

// NewSeriesSet returns an empty sampler with the given interval; interval
// must be positive.
func NewSeriesSet(interval sim.Time) *SeriesSet {
	if interval <= 0 {
		panic("obs: series interval must be positive")
	}
	return &SeriesSet{Interval: interval}
}

// Add registers a series backed by source, returning it. Sources must be
// cheap, read-only views of simulator state (a counter read, a queue-bytes
// field); they run at every tick.
func (ss *SeriesSet) Add(name, unit string, source func() float64) *Series {
	s := &Series{Name: name, Unit: unit}
	ss.series = append(ss.series, s)
	ss.sources = append(ss.sources, source)
	return s
}

// Reserve pre-sizes every registered column for n total ticks, backed by a
// single shared slab. Without it the columns grow by amortized append —
// correct, but in a long run with a few hundred series the regrown copies
// become megabytes of garbage interleaved with the simulator's packet hot
// path, and the extra GC cycles cost far more than the sampling itself.
// Callers that know the run horizon (every experiment entry point does)
// should reserve right after the sources are registered. Sampling past the
// reservation falls back to append growth.
func (ss *SeriesSet) Reserve(n int) {
	if n <= 0 || len(ss.series) == 0 {
		return
	}
	slab := make([]float64, len(ss.series)*n)
	for i, s := range ss.series {
		if cap(s.V) >= n {
			continue
		}
		col := slab[i*n : i*n : (i+1)*n][:0]
		s.V = append(col, s.V...)
	}
}

// ReserveUntil is Reserve for sampling from Start through end at the set's
// interval.
func (ss *SeriesSet) ReserveUntil(end sim.Time) {
	if end <= ss.Start {
		return
	}
	ss.Reserve(int((end-ss.Start)/ss.Interval) + 1)
}

// Sample takes one sample of every registered series.
func (ss *SeriesSet) Sample() {
	for i, src := range ss.sources {
		s := ss.series[i]
		s.V = append(s.V, src())
	}
	ss.ticks++
}

// Ticks returns the number of samples taken.
func (ss *SeriesSet) Ticks() int { return ss.ticks }

// All returns the registered series in registration order.
func (ss *SeriesSet) All() []*Series { return ss.series }

// TimeAt returns the simulated time of sample i.
func (ss *SeriesSet) TimeAt(i int) sim.Time {
	return ss.Start + sim.Time(i+1)*ss.Interval
}
