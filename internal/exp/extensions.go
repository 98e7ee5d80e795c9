package exp

import (
	"prioplus/internal/cc"
	"prioplus/internal/core"
	"prioplus/internal/harness"
	"prioplus/internal/netsim"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
)

// This file contains the ablations of §6.1 beyond Fig 10c and the two
// extensions the paper sketches as future work: ECN-based virtual priority
// via priority-dependent marking (Appendix B) and weighted virtual
// priority (§7).

// ablationRows are the ablation spec's three tables, two rows each.
type ablationRows struct {
	filter      [2]ablationFilterResult      // ConsecLimit 1, 2
	cardinality [2]ablationCardinalityResult // estimation on, off
	probe       [2]ablationProbeResult       // collision avoidance, naive
}

// ablations runs the three ablations' six cells, each a private engine, as
// one fan-out (cells); n is the cardinality incast's flow count.
func ablations(n int) ablationRows {
	var r ablationRows
	cells(Options{}, 6, func(i int, o Options) struct{} {
		switch j := i % 2; i / 2 {
		case 0:
			r.filter[j] = ablationFilter(j+1, o)
		case 1:
			r.cardinality[j] = ablationCardinality(n, j == 0, o)
		default:
			r.probe[j] = ablationProbe(j == 1, o)
		}
		return struct{}{}
	})
	return r
}

// ablationFilterResult compares the two-consecutive filter against
// reacting to a single above-limit measurement.
type ablationFilterResult struct {
	consecLimit int
	yields      int64   // spurious yields under pure measurement noise
	util        float64 // achieved utilization
}

// ablationFilter runs five same-priority flows under 2x-scaled delay noise
// with a tight channel, with ConsecLimit consec: 1 (no filter) or 2
// (paper). Without the filter, long-tail noise spikes trigger spurious
// yields.
func ablationFilter(consec int, o Options) ablationFilterResult {
	// 2x-scaled noise, its RNG at 53, replaces the standard model.
	net := star(o, "", 7, 51, longTail{off: 2, scale: 2}, nil)
	recv := 6
	plan := core.DefaultPlan(net.Topo.BaseRTT(0, recv))
	flows := make([]*core.PrioPlus, 5)
	for i := range flows {
		ppc := core.DefaultConfig(plan.Channel(1), 8)
		ppc.ConsecLimit = consec
		flows[i] = core.New(swiftTo(net, i, recv), ppc)
		net.AddFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0, Algo: flows[i]})
	}
	dur := 4 * sim.Millisecond
	rs := net.SampleRates(recv, func(*netsim.Packet) int { return 0 }, 100*sim.Microsecond, dur)
	net.Run(dur)
	var yields int64
	for _, f := range flows {
		yields += f.Yields
	}
	return ablationFilterResult{
		consecLimit: consec,
		yields:      yields,
		util:        rs.Between(sim.Millisecond, dur, 0) / 100,
	}
}

// ablationCardinalityResult compares incast delay containment with and
// without flow-cardinality estimation.
type ablationCardinalityResult struct {
	estimation    bool
	overLimitFrac float64
}

// ablationCardinality reruns the Fig 10b incast of n flows with the
// estimator on or off: off, every flow keeps #flow = 1 and linear-starts
// at full W_LS, so the aggregate repeatedly overshoots D_limit (§4.3.1's
// "problematic cycle").
func ablationCardinality(n int, enabled bool, o Options) ablationCardinalityResult {
	net := star(o, "", n+2, 57, paperNoise, nil)
	recv := n + 1
	base := net.Topo.BaseRTT(0, recv)
	ch := core.DefaultPlan(base).Channel(4)
	for i := 0; i < n; i++ {
		ppc := core.DefaultConfig(ch, 8)
		ppc.DisableCardinality = !enabled
		net.AddFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0,
			Algo: core.New(swiftTo(net, i, recv), ppc)})
	}
	var over, samples int
	sampleQueueDelay(net, recv, sim.Millisecond, 5*sim.Microsecond, 600, func(wait sim.Time) {
		samples++
		if base+wait > ch.Limit {
			over++
		}
	})
	net.Run(4 * sim.Millisecond)
	return ablationCardinalityResult{estimation: enabled, overLimitFrac: float64(over) / float64(samples)}
}

// ablationProbeResult compares probe behavior between the paper's
// collision-avoidance schedule and naive once-per-RTT probing.
type ablationProbeResult struct {
	scheme    string  // "collision-avoidance" or "naive"
	probeGbps float64 // total probe bandwidth at the bottleneck while yielded
	// probeRateByPrio is the per-flow probe rate (probes/ms) for yielded
	// flows at priorities 0..3. Collision avoidance waits out
	// (delay - D_target), so deeper priorities probe less; naive probing
	// is uniform (§4.2.1: "keeps the probing frequency of higher-priority
	// flows while decreasing the bandwidth usage of lower-priority ones").
	probeRateByPrio [4]float64
	reclaimUS       float64 // time for lows to reach 80% after highs end
}

// ablationProbe yields 40 low-priority flows (10 each at priorities 0-3)
// under ten high-priority flows and measures per-priority probe rates,
// total probe load, and reclaim latency, under the paper's schedule or
// naive per-RTT probing.
func ablationProbe(naive bool, o Options) ablationProbeResult {
	const perPrio, nHigh = 10, 10
	const nLow = 4 * perPrio
	net := star(o, "", nLow+nHigh+2, 61, paperNoise, nil)
	eng := net.Eng
	recv := nLow + nHigh
	plan := core.DefaultPlan(net.Topo.BaseRTT(0, recv))
	for i := 0; i < nLow; i++ {
		ppc := core.DefaultConfig(plan.Channel(i/perPrio), 8)
		ppc.NaiveProbe = naive
		ppc.NoProbeJitter = naive
		net.AddFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0,
			Algo: core.New(swiftTo(net, i, recv), ppc)})
	}
	// Ten high-priority flows preempt the lows for ~4 ms.
	var highEnd sim.Time
	remaining := nHigh
	for i := 0; i < nHigh; i++ {
		src := nLow + i
		net.AddFlow(harness.Flow{Src: src, Dst: recv, Size: 5 << 20, Prio: 0,
			Algo:    ppSwiftTo(net, src, recv, plan.Channel(6)),
			StartAt: sim.Millisecond,
			OnComplete: func(sim.Time) {
				remaining--
				if remaining == 0 {
					highEnd = eng.Now()
				}
			}})
	}
	var probeBytes int64
	var probesByPrio [4]int64
	winFrom, winTo := 2500*sim.Microsecond, 4500*sim.Microsecond
	inner := net.Topo.Hosts[recv].Sink
	net.Topo.Hosts[recv].Sink = func(pkt *netsim.Packet) {
		if pkt.Type == netsim.Probe && eng.Now() > winFrom && eng.Now() <= winTo {
			probeBytes += int64(pkt.Wire)
			if pkt.Src < nLow {
				probesByPrio[pkt.Src/perPrio]++
			}
		}
		inner(pkt)
	}
	dur := 9 * sim.Millisecond
	rs := net.SampleRates(recv, func(p *netsim.Packet) int {
		if p.Src >= nLow {
			return 1
		}
		return 0
	}, 25*sim.Microsecond, dur)
	net.Run(dur)
	res := ablationProbeResult{
		scheme:    map[bool]string{true: "naive", false: "collision-avoidance"}[naive],
		probeGbps: float64(probeBytes) * 8 / (winTo - winFrom).Seconds() / 1e9,
	}
	winMS := (winTo - winFrom).Millis()
	for p := 0; p < 4; p++ {
		res.probeRateByPrio[p] = float64(probesByPrio[p]) / float64(perPrio) / winMS
	}
	res.reclaimUS = (dur - highEnd).Micros()
	for i, t := range rs.Times {
		if highEnd > 0 && t > highEnd && rs.Rates[i][0] >= 80 {
			res.reclaimUS = (t - highEnd).Micros()
			break
		}
	}
	return res
}

// ecnPrioResult is the Appendix B extension: DCTCP flows with priority-
// dependent ECN thresholds in one queue.
type ecnPrioResult struct {
	highShare float64 // share of the high-vprio group in steady state
	util      float64
}

// ecnPrio runs 2 high-vprio and 2 low-vprio DCTCP flows through one
// physical queue; the switch marks low-vprio packets at a low threshold
// (25 KB) and high-vprio packets at a high one (150 KB). The low flows see
// congestion first and back off, approximating priority — weighted, not
// strict, which is why the paper leaves ECN support as future work.
func ecnPrio() ecnPrioResult {
	net := star(Options{}, "", 5, 67, paperNoise, func(cfg *topo.Config) {
		cfg.Buffer.ECNKByVPrio = []int{25_000, 150_000}
	})
	recv := 4
	for i := 0; i < 4; i++ {
		d := cc.NewDCTCP(cc.DefaultDCTCPConfig(net.BDPPackets(i, recv)))
		net.AddFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0,
			VPrio: int16(i / 2), Algo: d})
	}
	dur := 4 * sim.Millisecond
	rs := net.SampleRates(recv, func(p *netsim.Packet) int { return int(p.VPrio) }, 50*sim.Microsecond, dur)
	net.Run(dur)
	hi := rs.Between(dur/2, dur, 1)
	lo := rs.Between(dur/2, dur, 0)
	return ecnPrioResult{highShare: hi / (hi + lo), util: (hi + lo) / 100}
}

// weightedVPResult is the §7 extension: weighted sharing inside one
// channel combined with strict priority across channels.
type weightedVPResult struct {
	// shareRatio is the in-channel bandwidth ratio of the weight-4 flow
	// to the weight-1 flow (ideal: 4).
	shareRatio float64
	// highStrict is the higher-channel flow's share while active (ideal:
	// ~1, strictness is preserved).
	highStrict float64
}

// weightedVP runs two flows in one channel with AI weights 1 and 4, plus a
// strictly higher-priority flow that preempts both for part of the run.
func weightedVP() weightedVPResult {
	net := star(Options{}, "", 4, 71, paperNoise, nil)
	recv := 3
	plan := core.DefaultPlan(net.Topo.BaseRTT(0, recv))
	mk := func(src int, weight float64, prio int) *core.PrioPlus {
		ppc := core.DefaultConfig(plan.Channel(prio), 8)
		ppc.Weight = weight
		return core.New(swiftTo(net, src, recv), ppc)
	}
	// Paced senders: in-channel sharing is then governed by the window
	// ratio (arrival rate = cwnd/RTT), which the AI weighting controls.
	net.AddFlow(harness.Flow{Src: 0, Dst: recv, Size: 1 << 30, Prio: 0, Algo: mk(0, 1, 1), Paced: true})
	net.AddFlow(harness.Flow{Src: 1, Dst: recv, Size: 1 << 30, Prio: 0, Algo: mk(1, 4, 1), Paced: true})
	// Weighted AIMD converges with a time constant of several hundred
	// RTTs (the per-RTT decrease fraction at equilibrium is small), so
	// shares are measured late in a 20 ms run. A strictly higher channel
	// preempts both in [20 ms, ~21 ms).
	var highEnd sim.Time
	net.AddFlow(harness.Flow{Src: 2, Dst: recv, Size: 12 << 20, Prio: 0, Algo: mk(2, 1, 6), Paced: true,
		StartAt:    20 * sim.Millisecond,
		OnComplete: func(sim.Time) { highEnd = net.Eng.Now() }})
	dur := 22 * sim.Millisecond
	rs := net.SampleRates(recv, func(p *netsim.Packet) int { return p.Src }, 50*sim.Microsecond, dur)
	net.Run(dur)
	w1 := rs.Between(14*sim.Millisecond, 20*sim.Millisecond, 0)
	w4 := rs.Between(14*sim.Millisecond, 20*sim.Millisecond, 1)
	hiFrom, hiTo := 20*sim.Millisecond+300*sim.Microsecond, highEnd-100*sim.Microsecond
	hi := rs.Between(hiFrom, hiTo, 2)
	all := hi + rs.Between(hiFrom, hiTo, 0) + rs.Between(hiFrom, hiTo, 1)
	return weightedVPResult{
		shareRatio: w4 / w1,
		highStrict: hi / all,
	}
}
