// Package obs is the simulator's observability layer: a metrics registry
// for per-run counters and high-water marks, and an optional JSONL event
// trace (see trace.go). It is designed around the engine-per-run model used
// by internal/runner: every run owns a private Recorder alongside its
// private sim.Engine, so nothing here takes locks and nothing is shared
// across goroutines.
//
// The layer is zero-cost when disabled. Hot-path hooks in internal/netsim
// and internal/transport are guarded by a single nil check (`if trace !=
// nil`, `if OnFlowDone != nil`); counter fields that are always maintained
// (drops, ECN marks, pause time, high-water marks) are plain integer
// updates the simulator was already paying for. The registry itself is
// only walked once, after the run, by harness.Net.CollectMetrics.
//
// docs/OBSERVABILITY.md lists every metric name the harness emits, its
// units, and which paper figure it validates.
package obs

import "prioplus/internal/sim"

// Counter is a monotonically increasing metric cell. The zero value is
// ready to use. Counters are not safe for concurrent use: one run, one
// goroutine, one registry.
type Counter struct {
	v float64
}

// Add increases the counter by n.
func (c *Counter) Add(n float64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v }

// Gauge tracks a current value together with its high-water mark. The zero
// value is ready to use.
type Gauge struct {
	v, max float64
}

// Observe sets the current value and raises the high-water mark if needed.
func (g *Gauge) Observe(v float64) {
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Value returns the most recently observed value.
func (g *Gauge) Value() float64 { return g.v }

// Max returns the high-water mark across all observations.
func (g *Gauge) Max() float64 { return g.max }

// Registry is an ordered collection of named counters and gauges. Names
// use a slash-separated hierarchy ("net/drops", "switch/tor0/ecn_marks");
// the canonical names are documented in docs/OBSERVABILITY.md. Cells are
// created on first use; creation order is preserved so reports are
// deterministic.
type Registry struct {
	order    []string
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Registering a name as both a counter and a gauge panics: it always
// indicates a metric-name collision.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	if _, clash := r.gauges[name]; clash {
		panic("obs: metric " + name + " already registered as a gauge")
	}
	c := &Counter{}
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if _, clash := r.counters[name]; clash {
		panic("obs: metric " + name + " already registered as a counter")
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Names returns every registered metric name in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// Value returns the current value of a metric (a counter's count, a
// gauge's high-water mark) and whether the name is registered.
func (r *Registry) Value(name string) (float64, bool) {
	if c, ok := r.counters[name]; ok {
		return c.Value(), true
	}
	if g, ok := r.gauges[name]; ok {
		return g.Max(), true
	}
	return 0, false
}

// Snapshot returns every metric by name. Counters report their count,
// gauges their high-water mark (the registry's gauges all track maxima:
// buffer and queue occupancy peaks).
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(r.order))
	for _, name := range r.order {
		v, _ := r.Value(name)
		out[name] = v
	}
	return out
}

// Recorder bundles the per-run observability state: a metrics registry, an
// optional event-trace sink, and the second-generation instruments —
// time-series sampler, latency histograms, flight recorder, watchdog. A nil
// field disables that instrument entirely; harness.Net.Observe only
// installs hooks for the parts that are non-nil.
type Recorder struct {
	// Metrics collects the run's counters and high-water marks. Filled by
	// harness.Net.CollectMetrics after the run; flow-completion aggregates
	// are updated live as flows finish.
	Metrics *Registry
	// Trace, when non-nil, receives one Event per simulator occurrence
	// (enqueue, dequeue, drop, ECN mark, PFC pause/resume, flow
	// completion). Use NewJSONLSink(w, &rec.Devs) to stream events to a
	// file.
	Trace Tracer
	// Devs is the run's device-name table: trace events name their device
	// by DevID, harness.Net.Observe registers every device here, and the
	// renderers (JSONLSink, FlightRecorder.Dump, the flow tracer) resolve
	// names through it.
	Devs DevTable
	// Series, when non-nil, samples simulator gauges at a fixed simulated-
	// time interval; harness.Net.Observe registers the standard sources and
	// installs the engine clock hook.
	Series *SeriesSet
	// Hist, when non-nil, records fabric-delay, FCT, and ACK-RTT latency
	// distributions via zero-alloc streaming histograms.
	Hist *HistSet
	// Flight, when non-nil, keeps the most recent trace events in a ring
	// for post-mortem dumps. Events reach Trace after the ring, so the two
	// compose.
	Flight *FlightRecorder
	// Watchdog, when non-nil, is checked against the run's in-flight-bytes
	// and pending-event gauges at every Series sampling tick — or, when Series
	// is nil, at harness.DefaultWatchdogInterval.
	Watchdog *Watchdog
	// FlowTrace, when non-nil, records causal timelines (packet journeys +
	// CC decision audit) for a deterministic sample of flows. Installed by
	// harness.Net.Observe on the transport stacks and, via SwitchEmitter, in
	// the switch trace chain.
	FlowTrace *FlowTracer
	// Faults accumulates executed fault events (link flaps, reboots).
	// Always present — fault events are rare, so unlike the sampling
	// instruments there is nothing to disable.
	Faults *FaultLog
	// Cost, when non-nil, attributes sampled per-event execution cost by
	// event kind; harness.Net.Observe installs it as the engine's cost
	// sampler and CollectMetrics folds the buckets into Metrics.
	Cost *CostProfiler
	// Runtime, when non-nil, merges host-process gauges (RSS, GC, heap,
	// events/sec, wall-vs-sim ratio) into Series. Requires Series; the
	// values are wall-clock facts, so artifacts with Runtime enabled are
	// not byte-deterministic.
	Runtime *RuntimeSampler
	// Live, when non-nil, receives lock-free progress updates (events,
	// sim clock, in-flight bytes) at every sampling tick for the stream
	// server's /runs endpoint.
	Live *LiveRun
	// Digest, when non-nil, is the run's per-event execution fingerprint:
	// harness.Net.Observe installs it on the engine and every port, and
	// the chain's checkpoints land in the artifact as "ckpt" lines. Pure
	// observation — the chain is invariant across observability
	// configurations (see sim.Digest).
	Digest *sim.Digest
	// Audit, when non-nil, runs the harness's conservation invariants at
	// every sampler tick; a violation stops the run (unless KeepRunning)
	// and dumps the flight recorder.
	Audit *Auditor
	// OnCollected, when non-nil, is called by harness.Net.CollectMetrics
	// once the run's metrics are in: the run is over and the recorder
	// complete, so its owner can write it out and let go of it while later
	// runs of the same experiment are still to come.
	OnCollected func()
}

// NewRecorder returns a recorder with an empty registry and no trace sink.
func NewRecorder() *Recorder {
	return &Recorder{Metrics: NewRegistry(), Faults: &FaultLog{}}
}

// Emitter resolves what ports, NICs and the flow-completion hook emit trace
// events into: the flight ring with Trace downstream of it when both are
// set, whichever one alone otherwise, or nil when tracing is fully disabled.
func (r *Recorder) Emitter() *Emitter {
	return newEmitter(r.Flight, r.Trace)
}

// SwitchEmitter resolves the emitter for switches: with flow tracing on, the
// flow tracer sits between the ring and Trace (switch drop and ECN-mark
// events feed sampled flows' journeys); otherwise it is Emitter(). Ports keep
// the plain one — their per-packet volume is covered by the INT piggyback,
// so the port hot path never pays the flow-tracer call.
func (r *Recorder) SwitchEmitter() *Emitter {
	if r.FlowTrace == nil {
		return r.Emitter()
	}
	r.FlowTrace.Inner = r.Trace
	r.FlowTrace.Devs = &r.Devs
	return newEmitter(r.Flight, r.FlowTrace)
}
