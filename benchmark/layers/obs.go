//go:build layerbench

package main

import (
	"prioplus/internal/harness"
	"prioplus/internal/obs"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
)

func init() { register("obs", 7, runObs) }

func runObs(r *report) {
	const n = 5_000_000
	h := obs.NewHistogram("rig", "ns")
	observe := func() {
		v := int64(1)
		for i := 0; i < n; i++ {
			h.Observe(v)
			v = v*6364136223846793005 + 1442695040888963407 // cheap LCG: spread over all buckets
			v &= 1<<30 - 1
		}
	}
	observe()
	r.put("obs.hist_observe_ns", timeOps(3, n, observe), "ns")

	// One sampler tick over the standard source catalogue of a k=4 fat-tree
	// (what -series pays every 10 simulated microseconds).
	net := harness.New(topo.FatTree(sim.NewEngine(), 4, topo.DefaultConfig()), 1)
	rec := obs.NewRecorder()
	rec.Series = obs.NewSeriesSet(obs.DefaultSeriesInterval)
	net.Observe(rec)
	const ticks = 20_000
	rec.Series.Reserve(4 * ticks)
	tick := func() {
		for i := 0; i < ticks; i++ {
			rec.Series.Sample()
		}
	}
	r.put("obs.series_tick_us", timeOps(3, ticks, tick)/1e3, "us")
}
