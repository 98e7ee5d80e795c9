package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{10, 14, 7, 12, 8}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"5% slower, within bound", lower, steady, scale(steady, 1.05), "ok"},
		{"20% slower", lower, steady, scale(steady, 1.20), "worse"},
		{"20% faster", lower, steady, scale(steady, 0.80), "ok"},
		{"throughput down 20%", higher, steady, scale(steady, 0.80), "worse"},
		{"throughput up 20%", higher, steady, scale(steady, 1.20), "ok"},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.05), "unresolved"},
		{"noisy, yet every run of B beats every run of A", lower, noisy, scale(noisy, 0.4), "ok"},
	}
	for _, c := range cases {
		if _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestValuesSkipNotMeasured(t *testing.T) {
	rf := &resultFile{Runs: []runRecord{
		{Workload: "w", Trace: true, Metrics: map[string]metric{"m": {Value: notMeasured}}},
		{Workload: "w", Trace: true, Metrics: map[string]metric{"m": {Value: 3}}},
		{Workload: "w", Trace: false, Metrics: map[string]metric{"m": {Value: 4}}},
		{Workload: "other", Trace: true, Metrics: map[string]metric{"m": {Value: 5}}},
	}}
	if got := values(rf, "w", "m", true); len(got) != 1 || got[0] != 3 {
		t.Errorf("values = %v, want [3]", got)
	}
}
