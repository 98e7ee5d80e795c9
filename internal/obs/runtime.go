package obs

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"prioplus/internal/sim"
)

// DefaultRuntimeEvery is the default host-gauge refresh stride: the
// RuntimeSampler re-reads process state every this many series ticks and
// holds the values in between. Series ticks fire every ~10 µs of simulated
// time; refreshing each tick would cost more than the simulation itself
// (runtime/metrics + /proc reads are microseconds each), so the gauges are
// step functions by design.
const DefaultRuntimeEvery = 64

// HostGauges is one snapshot of the simulator process itself.
type HostGauges struct {
	// RSSBytes is the resident set size from /proc/self/statm (0 when the
	// proc filesystem is unavailable, e.g. non-Linux hosts).
	RSSBytes float64
	// HeapBytes is the live heap (runtime/metrics heap objects bytes).
	HeapBytes float64
	// GCCycles is the completed GC cycle count.
	GCCycles float64
	// GCPauseUS is the cumulative stop-the-world pause time, microseconds.
	GCPauseUS float64
	// Goroutines is the current goroutine count.
	Goroutines float64
}

// NewHostGaugeReader returns a snapshot function over warm, reusable
// reader state (for callers outside the sampler, e.g. the stream server's
// /metrics endpoint). The returned function is not safe for concurrent
// use.
func NewHostGaugeReader() func() HostGauges {
	h := newHostReader()
	return h.Read
}

// hostReader reads HostGauges with warm, reusable state: the
// runtime/metrics sample slice, the GC pause history buffer, and an open
// /proc/self/statm handle (read via ReadAt, so no seek state).
type hostReader struct {
	samples  []metrics.Sample
	gc       debug.GCStats
	statm    *os.File
	statmErr bool
	buf      [80]byte
	pageSize float64
}

// newHostReader prepares the runtime/metrics sample set.
func newHostReader() *hostReader {
	return &hostReader{
		samples: []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
		pageSize: float64(os.Getpagesize()),
	}
}

// Read takes one snapshot.
func (h *hostReader) Read() HostGauges {
	var g HostGauges
	metrics.Read(h.samples)
	if v := h.samples[0].Value; v.Kind() == metrics.KindUint64 {
		g.HeapBytes = float64(v.Uint64())
	}
	if v := h.samples[1].Value; v.Kind() == metrics.KindUint64 {
		g.GCCycles = float64(v.Uint64())
	}
	debug.ReadGCStats(&h.gc)
	g.GCPauseUS = float64(h.gc.PauseTotal) / 1e3
	g.Goroutines = float64(runtime.NumGoroutine())
	g.RSSBytes = h.readRSS()
	return g
}

// readRSS parses the resident-pages field of /proc/self/statm.
func (h *hostReader) readRSS() float64 {
	if h.statmErr {
		return 0
	}
	if h.statm == nil {
		f, err := os.Open("/proc/self/statm")
		if err != nil {
			h.statmErr = true
			return 0
		}
		h.statm = f
	}
	n, err := h.statm.ReadAt(h.buf[:], 0)
	if n <= 0 && err != nil {
		return 0
	}
	// statm: "size resident shared ..." in pages; take field 2.
	b := h.buf[:n]
	i := 0
	for i < len(b) && b[i] != ' ' {
		i++
	}
	i++
	var pages float64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		pages = pages*10 + float64(b[i]-'0')
		i++
	}
	return pages * h.pageSize
}

// RuntimeSampler merges host-process gauges into a run's SeriesSet so the
// artifact carries the simulator's own runtime behavior next to the
// simulated gauges: RSS, heap, GC activity, goroutines, instantaneous
// events/sec, and the wall-vs-sim time ratio.
//
// The sampler piggybacks on the existing engine sampling clock: the
// harness calls Tick before each SeriesSet.Sample, and every Every ticks
// (DefaultRuntimeEvery when zero) the snapshot is refreshed; between
// refreshes the registered sources repeat the held values. The rate gauges
// (events/sec, wall-per-sim) are measured over the refresh window.
//
// Host gauges are wall-clock facts, so enabling the sampler makes the
// artifact nondeterministic across machines and runs — it is opt-in
// (`-runtime`) and never part of the determinism-checked default series.
type RuntimeSampler struct {
	// Every is the refresh stride in series ticks; 0 means
	// DefaultRuntimeEvery.
	Every int

	host *hostReader
	tick int

	// Refresh-window state for the rate gauges.
	lastWall   time.Time
	lastSim    sim.Time
	lastEvents uint64

	// Held snapshot, repeated between refreshes.
	cur        HostGauges
	evPerSec   float64
	wallPerSim float64
}

// Register adds the runtime series to ss, reading engine progress from
// eng. Call once, after the simulated sources, so the deterministic
// columns keep their positions.
func (r *RuntimeSampler) Register(ss *SeriesSet, eng *sim.Engine) {
	r.host = newHostReader()
	ss.Add("runtime/rss_bytes", "bytes", func() float64 { return r.cur.RSSBytes })
	ss.Add("runtime/heap_bytes", "bytes", func() float64 { return r.cur.HeapBytes })
	ss.Add("runtime/gc_cycles", "cycles", func() float64 { return r.cur.GCCycles })
	ss.Add("runtime/gc_pause_us", "us", func() float64 { return r.cur.GCPauseUS })
	ss.Add("runtime/goroutines", "goroutines", func() float64 { return r.cur.Goroutines })
	ss.Add("runtime/events_per_sec", "events/s", func() float64 { return r.evPerSec })
	ss.Add("runtime/wall_per_sim", "ratio", func() float64 { return r.wallPerSim })
	// Prime the window so the first refresh reports rates over real time.
	r.lastWall = time.Now()
	r.lastSim = eng.Now()
	r.lastEvents = eng.Processed()
	r.cur = r.host.Read()
}

// Tick advances the refresh countdown; the harness calls it right before
// SeriesSet.Sample on every sampling tick.
func (r *RuntimeSampler) Tick(eng *sim.Engine) {
	every := r.Every
	if every <= 0 {
		every = DefaultRuntimeEvery
	}
	r.tick++
	if r.tick%every != 0 {
		return
	}
	r.cur = r.host.Read()
	wall := time.Now()
	dWall := wall.Sub(r.lastWall).Seconds()
	if dWall > 0 {
		ev := eng.Processed()
		r.evPerSec = float64(ev-r.lastEvents) / dWall
		r.lastEvents = ev
		if dSim := (eng.Now() - r.lastSim).Seconds(); dSim > 0 {
			r.wallPerSim = dWall / dSim
		}
		r.lastSim = eng.Now()
		r.lastWall = wall
	}
}

// LiveRun is the lock-free bridge between a running simulation and the
// live endpoints: the harness sampling hook stores into these atomics from
// the run's goroutine, and the stream server reads them from HTTP handler
// goroutines. One LiveRun belongs to one runner.RunEntry.
type LiveRun struct {
	// Events is the number of engine events dispatched so far across the
	// run's engine (accumulated, so multi-phase runs keep counting).
	Events atomic.Uint64
	// SimPS is the simulated clock in picoseconds.
	SimPS atomic.Int64
	// InflightBytes is the current in-flight byte gauge (packets alive in
	// the fabric).
	InflightBytes atomic.Int64
	// HeapEvents is the engine's pending-event count.
	HeapEvents atomic.Int64
	// WatchdogLimit is the watchdog's in-flight byte ceiling, 0 when no
	// watchdog is armed; with InflightBytes it gives watchdog proximity.
	WatchdogLimit atomic.Int64
}
