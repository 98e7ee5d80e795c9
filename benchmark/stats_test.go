package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := percentile(hundred, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
}

// The reporting rule: the highest percentile with at least ten samples
// beyond it.
func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {400, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := supportedTail(c.n); p > 0 {
			if beyond := c.n - rankOf(p, c.n); beyond < 10 {
				t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, beyond)
			}
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(xs, n=4),
// which the acceptance check uses. Expected values computed with it.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64 // (q3 - q1) / median
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 13, 10.5}, (12.5 - 10.25) / 11},
		{[]float64{3, 1}, (3.5 - 0.5) / 2},
	}
	for _, c := range cases {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestFNVMatchesManifestConvention(t *testing.T) {
	// FNV-64a of the empty string is the offset basis.
	if got := fnv64a(nil); got != "cbf29ce484222325" {
		t.Errorf("fnv64a(nil) = %s", got)
	}
	if got := fnv64a([]byte("a")); got != "af63dc4c8601ec8c" {
		t.Errorf("fnv64a(a) = %s", got)
	}
}

func TestStripLines(t *testing.T) {
	out := "row 1\n# hist a\nrow 2\n# fingerprint x\n"
	if got := stripLines(out, "# hist"); got != "row 1\nrow 2\n# fingerprint x\n" {
		t.Errorf("got %q", got)
	}
	if got := stripLines(out, "# hist", "# fingerprint"); got != "row 1\nrow 2\n" {
		t.Errorf("got %q", got)
	}
}
