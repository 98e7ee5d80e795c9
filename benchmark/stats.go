package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rankOf(p, len(s))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
// The epsilon keeps 99.9% of 10000 at 9990, not 9991, under float rounding.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// tailPercentiles are the candidates supportedTail chooses from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// supportedTail returns the highest of tailPercentiles that has at least ten
// of the n samples strictly beyond it, or 0 when even p75 has not (under 40
// samples): a tail read from fewer points is one outlier, not a percentile.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// tailNote renders "p95 of 412 (highest supported p99)" for the printed table,
// so a reader sees when the fixed reporting percentile outruns its samples.
func tailNote(p float64, n int) string {
	best := supportedTail(n)
	switch {
	case best == 0:
		return fmt.Sprintf("p%g of %d samples; too few for any tail percentile", p, n)
	case best < p:
		return fmt.Sprintf("p%g of %d samples; only p%g has 10 samples beyond it", p, n, best)
	}
	return fmt.Sprintf("p%g of %d samples", p, n)
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles placed as Python's
// statistics.quantiles(xs, n=4) places them (exclusive method), so -compare
// reports the same spread the acceptance check computes. Needs two samples.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// fnv64a is the output fingerprint the CLI and the job server use
// (`%016x` of FNV-64a over the output bytes).
func fnv64a(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
