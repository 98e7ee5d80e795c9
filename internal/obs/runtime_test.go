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

	get := func(name string) *obs.Series {
		for _, s := range ss.All() {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("series %s missing", name)
		return nil
	}
	// A live Go process always has a nonzero heap and at least one
	// goroutine; the gauges must reflect that on every tick (held values
	// between refreshes).
	for _, v := range get("runtime/heap_bytes").V {
		if v <= 0 {
			t.Fatalf("heap_bytes sample %v, want > 0", v)
		}
	}
	for _, v := range get("runtime/goroutines").V {
		if v < 1 {
			t.Fatalf("goroutines sample %v, want >= 1", v)
		}
	}
	for _, v := range get("runtime/events_per_sec").V {
		if v < 0 {
			t.Fatalf("events_per_sec sample %v, want >= 0", v)
		}
	}
	if got := get("runtime/rss_bytes").Len(); got != 6 {
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
	for _, s := range ss.All() {
		if s.Name == "runtime/heap_bytes" && s.V[0] != s.V[1] {
			t.Errorf("heap gauge changed between refreshes: %v vs %v", s.V[0], s.V[1])
		}
	}
}
