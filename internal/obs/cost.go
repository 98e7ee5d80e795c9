package obs

import (
	"sync/atomic"

	"prioplus/internal/sim"
)

// DefaultCostEvery is the cost-sampling stride: one in this many
// dispatched events is wall-clock stamped. At the simulator's ~60 ns/event
// dispatch cost, a stride of 64 amortizes the two monotonic clock reads
// (~40 ns) to well under 1 ns/event.
const DefaultCostEvery = 64

// CostBucket is one event kind's accumulated cost sample.
type CostBucket struct {
	// Samples is how many dispatches of this kind were stamped.
	Samples int64
	// Nanos is the summed wall-clock nanoseconds of the stamped dispatches.
	Nanos int64
}

// CostProfiler attributes simulated-event execution cost by event kind via
// the engine's sampled dispatch stamps (sim.Engine.SetCostSampler). One
// profiler belongs to one run (no locks, engine-per-run model); Observe
// additionally feeds a process-wide atomic table so a live /metrics
// endpoint can report cost shares while runs are in flight.
//
// Shares are unbiased: the engine uses a single 1-in-N countdown across
// every dispatch path, so a kind's share of stamped nanoseconds estimates
// its share of total dispatch time. Stamps never feed back into simulation
// state — enabling the profiler cannot perturb figure output.
type CostProfiler struct {
	buckets [sim.NumEventKinds]CostBucket
}

// Observe records one stamped dispatch. It is the engine cost-sampler
// callback: kind is the event's tag, nanos its measured wall time.
func (p *CostProfiler) Observe(kind uint8, nanos int64) {
	if kind >= sim.NumEventKinds {
		kind = sim.EKOther
	}
	b := &p.buckets[kind]
	b.Samples++
	b.Nanos += nanos
	globalCost[kind].samples.Add(1)
	globalCost[kind].nanos.Add(nanos)
}

// Record writes the profile into a metrics registry as cost/<kind>/samples
// and cost/<kind>/ns counters (kinds with no samples are omitted), making
// cost attribution part of the run's artifact.
func (p *CostProfiler) Record(r *Registry) {
	for k := uint8(0); k < sim.NumEventKinds; k++ {
		b := p.buckets[k]
		if b.Samples == 0 {
			continue
		}
		name := sim.EventKindName(k)
		r.Counter("cost/" + name + "/samples").Add(float64(b.Samples))
		r.Counter("cost/" + name + "/ns").Add(float64(b.Nanos))
	}
}

// globalCost is the process-wide cost table fed by every run's Observe, so
// live endpoints can report attribution across a whole batch without
// touching per-run state.
var globalCost [sim.NumEventKinds]struct {
	samples atomic.Int64
	nanos   atomic.Int64
}

// CostTotals returns the process-wide accumulated cost table, indexed by
// event kind (sim.EventKindName names each slot).
func CostTotals() [sim.NumEventKinds]CostBucket {
	var out [sim.NumEventKinds]CostBucket
	for i := range out {
		out[i] = CostBucket{
			Samples: globalCost[i].samples.Load(),
			Nanos:   globalCost[i].nanos.Load(),
		}
	}
	return out
}
