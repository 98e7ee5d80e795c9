package harness_test

import (
	"bytes"
	"testing"

	"prioplus/internal/fault"
	"prioplus/internal/harness"
	"prioplus/internal/netsim"
	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// TestSinkCounterChains is the regression test for the stacked-sink bug:
// attaching a second SinkCounter to the same host must chain to the first,
// so both meters see every delivered packet.
func TestSinkCounterChains(t *testing.T) {
	net, eng := newNet(3)
	byPrio := harness.NewThroughputMeter()
	bySrc := harness.NewThroughputMeter()
	net.SinkCounter(2, byPrio, func(p *netsim.Packet) int { return p.Prio })
	net.SinkCounter(2, bySrc, func(p *netsim.Packet) int { return p.Src })
	size := int64(50_000)
	done := 0
	for src := 0; src < 2; src++ {
		net.AddFlow(harness.Flow{Src: src, Dst: 2, Size: size, Prio: 0,
			Algo: swift(net, src, 2), OnComplete: func(sim.Time) { done++ }})
	}
	eng.RunUntil(5 * sim.Millisecond)
	if done != 2 {
		t.Fatalf("%d/2 flows completed: second SinkCounter broke delivery", done)
	}
	if got := bySrc.Snapshot(); got[0] != size || got[1] != size {
		t.Errorf("outer counter = %v, want %d per source", got, size)
	}
	if got := byPrio.Snapshot(); got[0] != 2*size {
		t.Errorf("inner counter = %v, want %d on prio 0: chain dropped the first sink", got, 2*size)
	}
}

// netAggregates is every net/ metric CollectMetrics emits — the list in
// docs/OBSERVABILITY.md. The test below fails if any goes missing.
var netAggregates = []string{
	"net/flows_completed", "net/retransmits", "net/rtos",
	"net/probes_sent", "net/fct_sum_us",
	"net/tx_packets", "net/tx_bytes", "net/rx_packets",
	"net/drops", "net/drop_bytes", "net/ecn_marks",
	"net/pfc_pauses", "net/pfc_pause_us",
	"net/buffer_hwm_bytes", "net/headroom_hwm_bytes", "net/queue_hwm_bytes",
	"net/fault_drops", "net/corrupt_drops", "net/no_route_drops",
}

// perEntitySuffixes maps a name prefix to the metrics every entity of that
// kind must report (also the docs/OBSERVABILITY.md list).
var perEntitySuffixes = map[string][]string{
	"switch/star/": {"rx_packets", "drops", "drop_bytes", "ecn_marks",
		"pfc_pauses", "buffer_hwm_bytes", "headroom_hwm_bytes"},
	"port/star:0/":  {"tx_packets", "tx_bytes", "paused_us", "queue_hwm_bytes"},
	"port/host0:0/": {"tx_packets", "tx_bytes", "paused_us", "queue_hwm_bytes"},
	"host/2/":       {"rx_packets"},
}

func TestObserveAndCollectMetrics(t *testing.T) {
	net, eng := newNet(3)
	rec := obs.NewRecorder()
	rec.Flight = obs.NewFlightRecorder(1 << 16)
	net.Observe(rec)

	size := int64(100_000)
	for src := 0; src < 2; src++ {
		net.AddFlow(harness.Flow{Src: src, Dst: 2, Size: size, Prio: 0, Algo: swift(net, src, 2)})
	}
	eng.RunUntil(5 * sim.Millisecond)
	net.CollectMetrics(rec)

	m := rec.Metrics
	for _, name := range netAggregates {
		if _, ok := m.Value(name); !ok {
			t.Errorf("metric %q not emitted", name)
		}
	}
	for prefix, suffixes := range perEntitySuffixes {
		for _, s := range suffixes {
			if _, ok := m.Value(prefix + s); !ok {
				t.Errorf("metric %q not emitted", prefix+s)
			}
		}
	}

	snap := metricOf(m)
	if snap["net/flows_completed"] != 2 {
		t.Errorf("net/flows_completed = %v, want 2", snap["net/flows_completed"])
	}
	if snap["net/fct_sum_us"] <= 0 {
		t.Errorf("net/fct_sum_us = %v, want > 0", snap["net/fct_sum_us"])
	}
	if snap["net/tx_packets"] <= 0 || snap["net/tx_bytes"] < float64(2*size) {
		t.Errorf("tx aggregates = %v pkts / %v bytes, want traffic", snap["net/tx_packets"], snap["net/tx_bytes"])
	}
	if snap["net/rx_packets"] <= 0 {
		t.Errorf("net/rx_packets = %v, want > 0", snap["net/rx_packets"])
	}
	if snap["net/queue_hwm_bytes"] <= 0 {
		t.Errorf("net/queue_hwm_bytes = %v, want > 0 (two senders share one egress)", snap["net/queue_hwm_bytes"])
	}
	// The host's own view must agree with the aggregate.
	if snap["host/2/rx_packets"] <= 0 {
		t.Errorf("host/2/rx_packets = %v, want > 0", snap["host/2/rx_packets"])
	}

	evs := rec.Flight.Events()
	kinds := map[obs.Kind]bool{}
	for _, ev := range evs {
		kinds[ev.Kind] = true
	}
	for _, kind := range []obs.Kind{obs.Enqueue, obs.Dequeue, obs.FlowDone} {
		if !kinds[kind] {
			t.Errorf("trace has no %s events", kind)
		}
	}
	if len(evs) < 10 {
		t.Errorf("trace recorded only %d events", len(evs))
	}
}

// metricOf reads the registry by name, absent metrics as 0.
func metricOf(m *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, name := range append(append([]string(nil), netAggregates...), "host/2/rx_packets") {
		out[name], _ = m.Value(name)
	}
	return out
}

// TestCollectMetricsWithoutObserve: the documented flow aggregates must
// exist (at zero) even when Observe was never attached, so reports always
// have the full metric set.
func TestCollectMetricsWithoutObserve(t *testing.T) {
	net, eng := newNet(3)
	net.AddFlow(harness.Flow{Src: 0, Dst: 2, Size: 10_000, Prio: 0, Algo: swift(net, 0, 2)})
	eng.RunUntil(5 * sim.Millisecond)
	rec := obs.NewRecorder()
	net.CollectMetrics(rec)
	for _, name := range netAggregates {
		if _, ok := rec.Metrics.Value(name); !ok {
			t.Errorf("metric %q missing without Observe", name)
		}
	}
	if v, _ := rec.Metrics.Value("net/flows_completed"); v != 0 {
		t.Errorf("net/flows_completed = %v without Observe, want 0", v)
	}
	if v, _ := rec.Metrics.Value("net/tx_packets"); v <= 0 {
		t.Errorf("net/tx_packets = %v, want > 0: device counters are always on", v)
	}
}

// readBack writes rec's artifact and reads it back: the production path to
// the sampled columns.
func readBack(t *testing.T, rec *obs.Recorder) *obs.Artifact {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteArtifact(&buf, "run", rec); err != nil {
		t.Fatal(err)
	}
	art, err := obs.ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestObserveSeriesAndHists: the full telemetry stack on a real run — the
// standard source catalogue is registered, the engine-clock sampler fills
// every series in lockstep, and the latency histograms are populated.
func TestObserveSeriesAndHists(t *testing.T) {
	net, eng := newNet(3)
	rec := obs.NewRecorder()
	rec.Series = obs.NewSeriesSet(10 * sim.Microsecond)
	rec.Hist = obs.NewHistSet()
	net.Observe(rec)

	done := 0
	for src := 0; src < 2; src++ {
		net.AddFlow(harness.Flow{Src: src, Dst: 2, Size: 100_000, Prio: 0,
			Algo: swift(net, src, 2), OnComplete: func(sim.Time) { done++ }})
	}
	eng.RunUntil(5 * sim.Millisecond)
	if done != 2 {
		t.Fatalf("%d/2 flows completed under full telemetry", done)
	}

	// 5 ms at 10 us: 500 ticks, every column sampled at each (the reader
	// rejects a sample line with a value missing).
	byName := map[string][]float64{}
	for _, s := range readBack(t, rec).Series {
		if len(s.V) != 500 {
			t.Errorf("series %q has %d samples, want 500", s.Name, len(s.V))
		}
		byName[s.Name] = s.V
	}
	for _, name := range []string{
		"net/inflight_bytes", "net/inflight_packets", "net/event_heap",
		"net/paused_queues", "net/prio0/queued_bytes",
		"switch/star/buffer_bytes", "switch/star/headroom_bytes",
		"port/star:0/queue_bytes",
		"port/star:0/paused", "port/host0:0/queue_bytes",
	} {
		if byName[name] == nil {
			t.Errorf("standard series %q not registered", name)
		}
	}
	peak := 0.0
	for _, v := range byName["net/inflight_bytes"] {
		if v > peak {
			peak = v
		}
	}
	if peak <= 0 {
		t.Error("net/inflight_bytes never rose above zero during a 200KB transfer")
	}

	if n := rec.Hist.FCT.Count(); n != 2 {
		t.Errorf("FCT histogram has %d observations, want 2", n)
	}
	if rec.Hist.AckRTT.Count() == 0 || rec.Hist.FabricDelay.Count() == 0 {
		t.Error("RTT/delay histograms empty after a full run")
	}
	if rec.Hist.FabricDelay.Min() <= 0 {
		t.Errorf("fabric delay min = %dns, want > 0", rec.Hist.FabricDelay.Min())
	}
}

// TestObserveWatchdogStopsEngine: an in-flight ceiling the traffic is sure
// to cross stops the run at a sampling tick, latches the reason, and shows
// up as net/watchdog_trips in the collected metrics.
func TestObserveWatchdogStopsEngine(t *testing.T) {
	net, eng := newNet(3)
	rec := obs.NewRecorder()
	rec.Watchdog = &obs.Watchdog{MaxInflightBytes: 1}
	net.Observe(rec)
	done := 0
	net.AddFlow(harness.Flow{Src: 0, Dst: 2, Size: 1_000_000, Prio: 0,
		Algo: swift(net, 0, 2), OnComplete: func(sim.Time) { done++ }})
	horizon := 50 * sim.Millisecond
	eng.RunUntil(horizon)
	if rec.Watchdog.Tripped() != "inflight_bytes" {
		t.Fatalf("Tripped = %q, want inflight_bytes", rec.Watchdog.Tripped())
	}
	if done != 0 {
		t.Error("flow completed despite the engine being stopped at the first tick")
	}
	if eng.Now() >= horizon {
		t.Errorf("engine ran to the horizon (%v) instead of stopping at the trip", eng.Now())
	}
	net.CollectMetrics(rec)
	if v, _ := rec.Metrics.Value("net/watchdog_trips"); v != 1 {
		t.Errorf("net/watchdog_trips = %v, want 1", v)
	}
}

// TestObserveCostLiveRuntime exercises the third-generation wiring in one
// run: the cost profiler is installed as the engine's cost sampler (and
// folded into metrics by CollectMetrics), live progress atomics advance at
// sampling ticks, and the runtime series land in the artifact series set
// after the deterministic catalogue.
func TestObserveCostLiveRuntime(t *testing.T) {
	net, eng := newNet(3)
	rec := obs.NewRecorder()
	rec.Series = obs.NewSeriesSet(10 * sim.Microsecond)
	rec.Cost = &obs.CostProfiler{}
	rec.Runtime = &obs.RuntimeSampler{}
	rec.Live = &obs.LiveRun{}
	net.Observe(rec)

	for src := 0; src < 2; src++ {
		net.AddFlow(harness.Flow{Src: src, Dst: 2, Size: 100_000, Prio: 0, Algo: swift(net, src, 2)})
	}
	eng.RunUntil(5 * sim.Millisecond)
	net.CollectMetrics(rec)

	// Cost attribution: a traffic-bearing run must stamp transmit and
	// delivery events, and the buckets must surface as metrics.
	tx, _ := rec.Metrics.Value("cost/transmit/samples")
	rx, _ := rec.Metrics.Value("cost/deliver_host/samples")
	if tx == 0 && rx == 0 {
		t.Error("cost profiler saw no transmit/delivery stamps")
	}
	if _, ok := rec.Metrics.Value("cost/deliver_switch/ns"); !ok {
		t.Error("cost/deliver_switch/ns metric not emitted")
	}

	// Live progress advanced.
	if ev := rec.Live.Events.Load(); ev == 0 {
		t.Error("live event counter never advanced")
	}
	if rec.Live.SimPS.Load() == 0 {
		t.Error("live sim clock never advanced")
	}

	// Runtime series registered after the simulated catalogue.
	all := readBack(t, rec).Series
	if len(all) == 0 || all[0].Name != "net/inflight_bytes" {
		t.Fatal("deterministic catalogue no longer leads the series set")
	}
	last := all[len(all)-1]
	if last.Name != "runtime/wall_per_sim" {
		t.Errorf("last series = %s, want runtime/wall_per_sim", last.Name)
	}
	if len(last.V) != len(all[0].V) || len(last.V) != 500 {
		t.Errorf("runtime series has %d samples, catalogue has %d, want 500", len(last.V), len(all[0].V))
	}
}

// TestObserveLiveOnly pins that a Live recorder without series or watchdog
// still gets a clock hook (the all -listen path with telemetry off).
func TestObserveLiveOnly(t *testing.T) {
	net, eng := newNet(3)
	rec := obs.NewRecorder()
	rec.Live = &obs.LiveRun{}
	net.Observe(rec)
	net.AddFlow(harness.Flow{Src: 0, Dst: 2, Size: 100_000, Prio: 0, Algo: swift(net, 0, 2)})
	eng.RunUntil(5 * sim.Millisecond)
	if rec.Live.Events.Load() == 0 {
		t.Error("live-only recorder never ticked")
	}
}

// TestRunIsTheRecorderProtocol: on a Net built WithRecorder, Run holds the
// docs/OBSERVABILITY.md rules by construction. The recorder is attached
// before traffic (it counts the flows and sees their packets), the series
// sample across the horizon, the device counters are collected and
// rec.OnCollected fires exactly once — and the fault log is wired whichever
// side of WithFaults the recorder option sits.
func TestRunIsTheRecorderProtocol(t *testing.T) {
	plan := fault.NewPlan(3).Flap(100*sim.Microsecond, 60*sim.Microsecond, fault.Link("star", "host0"))
	for name, opts := range map[string]func(*obs.Recorder) []harness.Option{
		"recorder-then-faults": func(rec *obs.Recorder) []harness.Option {
			return []harness.Option{harness.WithRecorder(rec), harness.WithFaults(plan)}
		},
		"faults-then-recorder": func(rec *obs.Recorder) []harness.Option {
			return []harness.Option{harness.WithFaults(plan), harness.WithRecorder(rec)}
		},
	} {
		rec := obs.NewRecorder()
		rec.Series = obs.NewSeriesSet(10 * sim.Microsecond)
		collected := 0
		rec.OnCollected = func() { collected++ }
		net, _ := newNet(3, opts(rec)...)
		if net.Rec != rec {
			t.Fatalf("%s: Net.Rec is not the recorder it was built with", name)
		}
		for src := 0; src < 2; src++ {
			net.AddFlow(harness.Flow{Src: src, Dst: 2, Size: 100_000, Prio: 0, Algo: swift(net, src, 2)})
		}
		net.Run(5 * sim.Millisecond)

		if collected != 1 {
			t.Errorf("%s: OnCollected fired %d times, want once", name, collected)
		}
		snap := metricOf(rec.Metrics)
		if snap["net/flows_completed"] != 2 || snap["net/tx_packets"] <= 0 {
			t.Errorf("%s: flows_completed=%v tx_packets=%v: recorder attached after traffic, or never collected",
				name, snap["net/flows_completed"], snap["net/tx_packets"])
		}
		if got := len(readBack(t, rec).Series[0].V); got != 500 {
			t.Errorf("%s: %d series ticks over 5 ms at 10 us, want 500", name, got)
		}
		if got := len(rec.Faults.Events); got != 2 {
			t.Errorf("%s: fault log has %d events, want the flap's down and up", name, got)
		}
	}
}

// TestRunWithoutRecorder: a nil recorder is a no-op option and Run is then
// a plain RunUntil.
func TestRunWithoutRecorder(t *testing.T) {
	net, eng := newNet(3, harness.WithRecorder(nil))
	done := false
	net.AddFlow(harness.Flow{Src: 0, Dst: 2, Size: 100_000, Prio: 0,
		Algo: swift(net, 0, 2), OnComplete: func(sim.Time) { done = true }})
	net.Run(5 * sim.Millisecond)
	if net.Rec != nil || !done || eng.Now() != 5*sim.Millisecond {
		t.Errorf("Rec=%v done=%v now=%v, want an uninstrumented run to the horizon", net.Rec, done, eng.Now())
	}
}
