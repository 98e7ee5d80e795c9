package obs_test

import (
	"testing"

	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

func TestCostProfilerObserve(t *testing.T) {
	before := obs.CostTotals()
	p := &obs.CostProfiler{}
	p.Observe(sim.EKTransmit, 100)
	p.Observe(sim.EKTransmit, 50)
	p.Observe(sim.EKDeliverHost, 25)
	p.Observe(255, 10) // out-of-range folds into EKOther

	if b := p.Bucket(sim.EKTransmit); b.Samples != 2 || b.Nanos != 150 {
		t.Errorf("transmit bucket = %+v", b)
	}
	if b := p.Bucket(sim.EKDeliverHost); b.Samples != 1 || b.Nanos != 25 {
		t.Errorf("deliver_host bucket = %+v", b)
	}
	if b := p.Bucket(sim.EKOther); b.Samples != 1 || b.Nanos != 10 {
		t.Errorf("other bucket = %+v", b)
	}
	if got := p.TotalNanos(); got != 185 {
		t.Errorf("TotalNanos = %d, want 185", got)
	}

	// The process-wide table advanced by the same amounts.
	after := obs.CostTotals()
	if d := after[sim.EKTransmit].Nanos - before[sim.EKTransmit].Nanos; d != 150 {
		t.Errorf("global transmit nanos delta = %d, want 150", d)
	}
	if d := after[sim.EKOther].Samples - before[sim.EKOther].Samples; d != 1 {
		t.Errorf("global other samples delta = %d, want 1", d)
	}
}

func TestCostProfilerRecord(t *testing.T) {
	p := &obs.CostProfiler{}
	p.Observe(sim.EKRTO, 40)
	r := obs.NewRegistry()
	p.Record(r)
	if v, ok := r.Value("cost/rto/ns"); !ok || v != 40 {
		t.Errorf("cost/rto/ns = %v (registered %v)", v, ok)
	}
	if v, ok := r.Value("cost/rto/samples"); !ok || v != 1 {
		t.Errorf("cost/rto/samples = %v (registered %v)", v, ok)
	}
	// Kinds without samples stay unregistered.
	if _, ok := r.Value("cost/pause/ns"); ok {
		t.Error("empty bucket was recorded")
	}
}

func TestCostProfilerStride(t *testing.T) {
	// Installed the way the harness installs it, the profiler stamps one in
	// DefaultCostEvery dispatches.
	eng := sim.NewEngine()
	p := &obs.CostProfiler{}
	eng.SetCostSampler(obs.DefaultCostEvery, p.Observe)
	const n = 10 * obs.DefaultCostEvery
	for i := 0; i < n; i++ {
		eng.After(sim.Time(i), func() {})
	}
	eng.Run()
	var samples int64
	for k := uint8(0); k < sim.NumEventKinds; k++ {
		samples += p.Bucket(k).Samples
	}
	if samples != n/obs.DefaultCostEvery {
		t.Errorf("%d dispatches stamped %d times, want %d", n, samples, n/obs.DefaultCostEvery)
	}
}
