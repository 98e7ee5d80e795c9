//go:build layerbench

package main

import (
	"math/rand"
	"time"

	"prioplus/internal/cc"
	"prioplus/internal/harness"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
	"prioplus/internal/workload"
)

// Set-up layers: what a run pays before its first event — building the
// fabric, computing routes, registering flows, generating arrivals.
func init() { register("topo+harness+workload", 5, runFabric) }

func runFabric(r *report) {
	cfg := topo.DefaultConfig()
	r.put("topo.fattree_k8_build_ms", bestMS(5, func() { topo.FatTree(sim.NewEngine(), 8, cfg) }), "ms")
	r.put("topo.coflowclos_build_ms", bestMS(3, func() { topo.CoflowClos(sim.NewEngine(), cfg) }), "ms")
	k8 := topo.FatTree(sim.NewEngine(), 8, cfg)
	r.put("topo.recompute_routes_ms", bestMS(5, k8.RecomputeRoutes), "ms")

	// 10k flows registered on a k=4 fat-tree, none started.
	const flows = 10_000
	r.put("harness.addflow_ns", timeOps(3, flows, func() {
		net := harness.New(topo.FatTree(sim.NewEngine(), 4, cfg), 1)
		hosts := len(net.Topo.Hosts)
		for i := 0; i < flows; i++ {
			src := i % hosts
			net.AddFlow(harness.Flow{Src: src, Dst: (src + 1 + i%(hosts-1)) % hosts, Size: 64 << 10,
				Algo: cc.NewNoCC(), StartAt: sim.Time(i) * sim.Microsecond})
		}
	}), "ns")

	var n int
	start := time.Now()
	for seed := int64(1); seed <= 5; seed++ {
		n += len(workload.Poisson(workload.PoissonConfig{
			Hosts: 128, Load: 0.7, LinkBps: 100e9, Dist: workload.WebSearch(),
			Duration: 20 * sim.Millisecond, Rng: rand.New(rand.NewSource(seed)),
		}))
	}
	r.put("workload.poisson_flows_per_s", float64(n)/time.Since(start).Seconds(), "1/s")

	n = 0
	start = time.Now()
	for seed := int64(1); seed <= 5; seed++ {
		n += len(workload.Coflows(workload.DefaultCoflowConfig(320, 0.7, 100e9, 200*sim.Millisecond, rand.New(rand.NewSource(seed)))))
	}
	r.put("workload.coflows_per_s", float64(n)/time.Since(start).Seconds(), "1/s")
}
