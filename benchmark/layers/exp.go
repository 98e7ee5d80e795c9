//go:build layerbench

package main

import (
	"prioplus/internal/exp"
	"prioplus/internal/sim"
)

// The coflow figures take 65-97 s each on the CLI and have no quick-scale
// flag there, so no end-to-end workload holds one. This reduced in-process
// run (bench_test.go's BenchmarkFig12Coflow configuration) is their proxy:
// the Clos fabric, coflow generator and scheduler with the largest working
// set the benchmark touches.
func init() { register("exp", 6, runExp) }

func runExp(r *report) {
	r.put("exp.coflow_reduced_ms", bestMS(1, func() {
		cfg := exp.DefaultCoflowConfig(exp.PrioPlusSwift(), 0.4)
		cfg.Duration = 6 * sim.Millisecond
		cfg.Drain = 30 * sim.Millisecond
		if rows := exp.Fig12Coflow(cfg, false); len(rows) == 0 {
			panic("Fig12Coflow returned no rows")
		}
	}), "ms")
}
