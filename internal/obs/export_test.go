package obs

import "prioplus/internal/sim"

// Names returns every registered metric name in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// Snapshot returns every metric by name: a counter's count, a gauge's
// high-water mark.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(r.order))
	for _, name := range r.order {
		v, _ := r.Value(name)
		out[name] = v
	}
	return out
}

// Trace copies a finished event into the ring; devices fill the slot in
// place through an Emitter instead.
func (f *FlightRecorder) Trace(ev *Event) {
	*f.slot() = *ev
	f.advance()
}

// Total returns the number of events recorded over the ring's lifetime
// (including overwritten ones).
func (f *FlightRecorder) Total() int64 { return f.total }

// Bucket returns the accumulated sample for one kind.
func (p *CostProfiler) Bucket(kind uint8) CostBucket {
	if kind >= sim.NumEventKinds {
		return CostBucket{}
	}
	return p.buckets[kind]
}

// TotalNanos returns the summed stamped nanoseconds across all kinds.
func (p *CostProfiler) TotalNanos() int64 {
	var t int64
	for i := range p.buckets {
		t += p.buckets[i].Nanos
	}
	return t
}

// SetMaxSpans bounds each flow's span ring below DefaultMaxSpans, so ring
// wrap-around is cheap to reach.
func (t *FlowTracer) SetMaxSpans(n int) { t.maxSpans = n }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum }

// Reset clears the histogram for reuse.
func (h *Histogram) Reset() {
	*h = Histogram{Name: h.Name, Unit: h.Unit}
}
