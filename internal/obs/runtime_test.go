package obs_test

import (
	"testing"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

func TestRuntimeSamplerSeries(t *testing.T) {
	eng := sim.NewEngine()
	ss := obs.NewSeriesSet(sim.Microsecond)
	rt := &obs.RuntimeSampler{}
	rt.Register(ss, eng)

	names := map[string]bool{}
	for _, s := range ss.All() {
		names[s.Name] = true
	}
	for _, want := range []string{
		"runtime/rss_bytes", "runtime/heap_bytes", "runtime/gc_cycles",
		"runtime/gc_pause_us", "runtime/goroutines",
		"runtime/events_per_sec", "runtime/wall_per_sim",
	} {
		if !names[want] {
			t.Errorf("series %s not registered", want)
		}
	}

	// Drive a few ticks the way the harness does.
	for i := 0; i < 6; i++ {
		rt.Tick(eng)
		ss.Sample()
	}

	// A live Go process always has a nonzero heap and at least one
	// goroutine; the gauges must reflect that on every tick (held values
	// between refreshes).
	art := readSeries(t, ss)
	for _, v := range column(t, art, "runtime/heap_bytes") {
		if v <= 0 {
			t.Fatalf("heap_bytes sample %v, want > 0", v)
		}
	}
	for _, v := range column(t, art, "runtime/goroutines") {
		if v < 1 {
			t.Fatalf("goroutines sample %v, want >= 1", v)
		}
	}
	for _, v := range column(t, art, "runtime/events_per_sec") {
		if v < 0 {
			t.Fatalf("events_per_sec sample %v, want >= 0", v)
		}
	}
	if got := len(column(t, art, "runtime/rss_bytes")); got != 6 {
		t.Fatalf("rss series has %d samples, want 6", got)
	}
}

func TestRuntimeSamplerRefreshStride(t *testing.T) {
	// The held snapshot must not change between refreshes (one every
	// DefaultRuntimeEvery ticks), even if the process state does.
	eng := sim.NewEngine()
	ss := obs.NewSeriesSet(sim.Microsecond)
	rt := &obs.RuntimeSampler{}
	rt.Register(ss, eng)
	rt.Tick(eng)
	ss.Sample()
	// Churn the heap between ticks.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<12))
	}
	_ = sink
	rt.Tick(eng)
	ss.Sample()
	if heap := column(t, readSeries(t, ss), "runtime/heap_bytes"); heap[0] != heap[1] {
		t.Errorf("heap gauge changed between refreshes: %v vs %v", heap[0], heap[1])
	}
}
