package stats

import (
	"sort"
	"strings"
	"testing"

	"prioplus/internal/sim"
)

func TestClassOf(t *testing.T) {
	cases := []struct {
		size int64
		want SizeClass
	}{
		{0, Small}, {299_999, Small}, {300_000, Middle},
		{5_999_999, Middle}, {6_000_000, Large}, {30_000_000, Large},
	}
	for _, c := range cases {
		if got := ClassOf(c.size); got != c.want {
			t.Errorf("ClassOf(%d) = %v, want %v", c.size, got, c.want)
		}
	}
}

func collector() *Collector {
	c := &Collector{}
	for i := 1; i <= 100; i++ {
		c.Add(FlowRecord{
			Size:  int64(i) * 100_000,
			FCT:   sim.Time(i) * sim.Microsecond,
			Ideal: sim.Microsecond,
			Prio:  i % 4,
		})
	}
	return c
}

func TestMeanAndPercentiles(t *testing.T) {
	c := collector()
	if got := c.MeanFCT(); got != 50500*sim.Nanosecond {
		t.Errorf("MeanFCT = %v, want 50.5us", got)
	}
	if got := c.PercentileSlowdown(0.99); got < 98 {
		t.Errorf("P99 slowdown = %v, want ~99", got)
	}
	if got := c.PercentileSlowdown(0); got != 1 {
		t.Errorf("P0 slowdown = %v, want 1", got)
	}
}

func TestSlowdown(t *testing.T) {
	r := FlowRecord{FCT: 30 * sim.Microsecond, Ideal: 10 * sim.Microsecond}
	if got := r.Slowdown(); got != 3 {
		t.Errorf("Slowdown = %v, want 3", got)
	}
	if got := (FlowRecord{FCT: sim.Microsecond}).Slowdown(); got != 1 {
		t.Errorf("zero-ideal slowdown = %v, want 1", got)
	}
}

func TestFilters(t *testing.T) {
	c := collector()
	small := c.ByClass(Small)
	for _, f := range small.Flows {
		if f.Size >= 300_000 {
			t.Fatal("ByClass(Small) returned a non-small flow")
		}
	}
	if small.Count()+c.ByClass(Middle).Count()+c.ByClass(Large).Count() != c.Count() {
		t.Error("size classes do not partition the flows")
	}
	p2 := c.Filter(func(f FlowRecord) bool { return f.Prio == 2 })
	if p2.Count() != 25 {
		t.Errorf("Filter(prio 2) = %d flows, want 25", p2.Count())
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(200*sim.Microsecond, 100*sim.Microsecond); got != 2 {
		t.Errorf("Speedup = %v, want 2", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("scheme", "fct", "speedup")
	tb.AddRow("swift", 123*sim.Microsecond, 1.5)
	tb.AddRow("prioplus", 100*sim.Microsecond, 2.0)
	var b strings.Builder
	tb.Render(&b)
	out := b.String()
	for _, want := range []string{"scheme", "swift", "prioplus", "123us", "1.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("table has %d lines, want 3", lines)
	}
}

func TestMeanSlowdownAndPercentile(t *testing.T) {
	c := &Collector{}
	for i := 1; i <= 10; i++ {
		c.Add(FlowRecord{FCT: sim.Time(i) * sim.Microsecond, Ideal: sim.Microsecond})
	}
	if got := c.MeanSlowdown(); got != 5.5 {
		t.Errorf("MeanSlowdown = %v, want 5.5", got)
	}
	if got := c.PercentileSlowdown(1); got != 10 {
		t.Errorf("P100 slowdown = %v, want 10", got)
	}
}

func TestEmptyCollectorSafe(t *testing.T) {
	c := &Collector{}
	if c.MeanFCT() != 0 || c.PercentileSlowdown(0.99) != 0 || c.MeanSlowdown() != 0 {
		t.Error("empty collector should return zeros")
	}
}

// TestPercentileCacheInvalidation: the sorted caches are exact and rebuild
// when flows are appended after a percentile query — answers must always
// match a from-scratch sort.
func TestPercentileCacheInvalidation(t *testing.T) {
	c := &Collector{}
	// Descending insert so the cache has real sorting work to do.
	for i := 100; i >= 1; i-- {
		c.Add(FlowRecord{FCT: sim.Time(i) * sim.Microsecond, Ideal: sim.Microsecond})
	}
	if got := c.PercentileSlowdown(0.5); got != 50 {
		t.Errorf("P50 slowdown = %v, want 50", got)
	}
	// Append past the cached snapshot: a flow faster than everything seen.
	c.Add(FlowRecord{FCT: 500 * sim.Nanosecond, Ideal: sim.Microsecond})
	if got := c.PercentileSlowdown(0); got != 0.5 {
		t.Errorf("P0 slowdown after append = %v, want 0.5: cache went stale", got)
	}
	// Repeated queries at the same length reuse the cache and stay exact.
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
		idx := int(p * float64(c.Count()-1))
		want := make([]float64, 0, c.Count())
		for _, f := range c.Flows {
			want = append(want, f.Slowdown())
		}
		sort.Float64s(want)
		if got := c.PercentileSlowdown(p); got != want[idx] {
			t.Errorf("PercentileSlowdown(%v) = %v, want exact %v", p, got, want[idx])
		}
	}
}
