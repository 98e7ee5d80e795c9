package obs

import "math/bits"

// Histogram bucket geometry: values 0..15 get exact unit buckets; above
// that, every power-of-two octave is split into 16 sub-buckets, giving a
// worst-case relative error of 1/16 (~6%) per recorded value — HDR-style
// resolution at a fixed 960-slot footprint, wide enough for any int64.
const (
	histSubBits  = 4
	histSubCount = 1 << histSubBits
	histBuckets  = (64 - histSubBits) * histSubCount
)

// histBucketOf maps a non-negative value to its dense bucket index.
func histBucketOf(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := uint(bits.Len64(uint64(v))) - 1 - histSubBits
	return int(exp)<<histSubBits + int(v>>exp)
}

// histBucketBounds returns the inclusive value range of a bucket.
func histBucketBounds(idx int) (lo, hi int64) {
	if idx < histSubCount {
		return int64(idx), int64(idx)
	}
	exp := uint(idx>>histSubBits) - 1
	lo = int64(histSubCount+idx&(histSubCount-1)) << exp
	return lo, lo + (1 << exp) - 1
}

// Histogram is a streaming log-bucketed histogram: fixed memory, zero-alloc
// Observe, deterministic quantiles with bounded (~6%) relative error. It
// replaces collect-then-sort percentile math for high-volume signals
// (fabric delay, FCT, ACK RTT) where storing every sample is too costly.
// Like the rest of the package it is single-goroutine: one run, one
// histogram.
type Histogram struct {
	// Name and Unit identify the histogram in artifacts and reports
	// ("transport/ack_rtt", "ns").
	Name string
	Unit string

	n        int64
	sum      int64
	min, max int64
	counts   [histBuckets]int64
}

// NewHistogram returns an empty histogram with the given identity.
func NewHistogram(name, unit string) *Histogram {
	return &Histogram{Name: name, Unit: unit}
}

// Observe records one value. Negative values clamp to zero (the signals
// recorded here — durations, sizes — are non-negative by construction; a
// negative sample indicates clock noise, not a meaningful quantity).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[histBucketOf(v)]++
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.n }

// Mean returns the mean recorded value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0..1): the upper edge
// of the bucket holding the q*Count()-th value, clamped to Max(). The true
// quantile lies within one bucket width (~6%) below the returned value.
//
// An empty histogram returns 0 for every q — the same "no data" value the
// other accessors use — so report paths may query quantiles without a
// Count() guard. q outside [0, 1] (including NaN) clamps into range.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 || q != q { // q != q: NaN also clamps low
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target value, 1-based, matching the nearest-rank method.
	rank := int64(q * float64(h.n))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for idx := 0; idx < histBuckets; idx++ {
		cum += h.counts[idx]
		if cum >= rank {
			_, hi := histBucketBounds(idx)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// Buckets calls fn for every non-empty bucket in ascending value order with
// the bucket's inclusive bounds and count.
func (h *Histogram) Buckets(fn func(lo, hi, count int64)) {
	for idx := 0; idx < histBuckets; idx++ {
		if c := h.counts[idx]; c > 0 {
			lo, hi := histBucketBounds(idx)
			fn(lo, hi, c)
		}
	}
}

// HistSet is the standard per-run latency histogram trio, installed on a
// run by harness.Net.Observe when Recorder.Hist is non-nil. The fields are
// value types so enabling histograms costs one allocation per run, and hot
// paths hold direct pointers (one nil check, no map lookup per sample).
type HistSet struct {
	// AckRTT is the sender-side measured RTT of every data ACK, in
	// nanoseconds (includes injected measurement noise, like the CC sees).
	AckRTT Histogram
	// FabricDelay is the receiver-side one-way delay of every delivered
	// data packet, in nanoseconds (SentAt to delivery; no noise).
	FabricDelay Histogram
	// FCT is the completion time of every finished flow, in nanoseconds.
	FCT Histogram
}

// NewHistSet returns the standard trio with canonical names.
func NewHistSet() *HistSet {
	return &HistSet{
		AckRTT:      Histogram{Name: "transport/ack_rtt", Unit: "ns"},
		FabricDelay: Histogram{Name: "transport/fabric_delay", Unit: "ns"},
		FCT:         Histogram{Name: "transport/fct", Unit: "ns"},
	}
}

// All returns the set's histograms in canonical order.
func (s *HistSet) All() []*Histogram {
	return []*Histogram{&s.AckRTT, &s.FabricDelay, &s.FCT}
}
