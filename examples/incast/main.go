// Incast: 120 same-priority PrioPlus flows start simultaneously into one
// receiver (the paper's Fig 10b stress test). Delay-based flow-cardinality
// estimation (§4.3.1) scales every flow's aggressiveness by the estimated
// flow count, keeping the fabric delay pinned near D_target instead of
// oscillating past D_limit.
//
// Run: go run ./examples/incast
package main

import (
	"fmt"

	"prioplus/internal/cc"
	"prioplus/internal/core"
	"prioplus/internal/harness"
	"prioplus/internal/noise"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
)

func main() {
	const n = 120
	eng := sim.NewEngine()
	cfg := topo.DefaultConfig()
	cfg.LinkDelay = 3 * sim.Microsecond
	nw := topo.Star(eng, n+1, cfg)
	nm := noise.NewLongTail(eng.Rand(7), 1)
	net := harness.New(nw, 7, harness.WithNoise(nm.Sample))

	recv := n
	base := nw.BaseRTT(0, recv)
	ch := core.DefaultPlan(base).Channel(4) // D_target = base + 20 us

	flows := make([]*core.PrioPlus, n)
	for i := 0; i < n; i++ {
		swift := cc.NewSwift(cc.DefaultSwiftConfig(base, net.BDPPackets(i, recv)))
		flows[i] = core.New(swift, core.DefaultConfig(ch, 8))
		net.AddFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0, Algo: flows[i]})
	}

	fmt.Printf("%d flows, channel [%v, %v]\n\n   time    queue delay   max #flow estimate\n", n, ch.Target, ch.Limit)
	for i := 1; i <= 30; i++ {
		eng.At(sim.Time(i)*100*sim.Microsecond, func() {
			q := nw.Switches[0].Ports[recv].TotalQueuedBytes()
			delay := base + sim.Time(float64(q)/(100e9/8)*1e12)
			maxEst := 0.0
			for _, f := range flows {
				if f.FlowEstimate() > maxEst {
					maxEst = f.FlowEstimate()
				}
			}
			fmt.Printf("%7.1f ms %10.1f us %12.0f\n", eng.Now().Millis(), delay.Micros(), maxEst)
		})
	}
	eng.RunUntil(3100 * sim.Microsecond)
	fmt.Printf("\ntarget %v: the delay settles near it despite %dx oversubscription\n", ch.Target, n)
}
