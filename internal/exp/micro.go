package exp

import (
	"math/rand"

	"prioplus/internal/cc"
	"prioplus/internal/core"
	"prioplus/internal/harness"
	"prioplus/internal/netsim"
	"prioplus/internal/noise"
	"prioplus/internal/sim"
	"prioplus/internal/topo"
)

// Series is a labeled rate-over-time trace for figure output.
type Series struct {
	Label string
	T     []float64 // milliseconds
	V     []float64 // Gb/s (or us, for delay series)
}

func seriesFrom(rs *harness.RateSampler, key int, label string) Series {
	s := Series{Label: label}
	for i, t := range rs.Times {
		s.T = append(s.T, t.Millis())
		s.V = append(s.V, rs.Rates[i][key])
	}
	return s
}

// Fig3aResult quantifies D2TCP's failure to provide strict priority.
type Fig3aResult struct {
	Series []Series
	// HighShare is the tight-deadline flow's bandwidth share while both
	// flows are active; strict priority would be ~1.0.
	HighShare float64
	// HighFCTvsIdeal is the tight flow's FCT over its ideal FCT; strict
	// priority would give ~1.0.
	HighFCTvsIdeal float64
}

// Fig3a reproduces the D2TCP micro-benchmark: two flows with deadlines 1x
// and 2x the ideal FCT. D2TCP slows both on ECN, so the tight flow neither
// monopolizes bandwidth nor finishes at its ideal FCT (Observation 1).
func Fig3a(size int64, o Options) Fig3aResult {
	net := star(o, "", 3, 3, paperNoise, func(cfg *topo.Config) {
		cfg.Buffer.ECNKMin = 100_000
		cfg.Buffer.ECNKMax = 100_000
	})
	base := net.Topo.BaseRTT(0, 2)
	ideal := IdealFCT(size, 100*netsim.Gbps, base)
	var fctHigh sim.Time
	for i := 0; i < 2; i++ {
		i := i
		cfg := cc.DefaultDCTCPConfig(net.BDPPackets(i, 2))
		cfg.Deadline = sim.Time(i+1) * ideal
		fl := harness.Flow{Src: i, Dst: 2, Size: size, Prio: 0, Algo: cc.NewDCTCP(cfg)}
		if i == 0 {
			fl.OnComplete = func(d sim.Time) { fctHigh = d }
		}
		net.AddFlow(fl)
	}
	dur := 8 * ideal
	rs := net.SampleRates(2, func(p *netsim.Packet) int { return p.Src }, dur/100, dur)
	net.Run(dur)
	mid := fctHigh * 8 / 10
	hi := rs.Between(fctHigh/10, mid, 0)
	lo := rs.Between(fctHigh/10, mid, 1)
	return Fig3aResult{
		Series:         []Series{seriesFrom(rs, 0, "high(DDL=1x)"), seriesFrom(rs, 1, "low(DDL=2x)")},
		HighShare:      hi / (hi + lo),
		HighFCTvsIdeal: float64(fctHigh) / float64(ideal),
	}
}

// Fig3bResult quantifies Swift-with-target-scaling's weighted (not strict)
// sharing.
type Fig3bResult struct {
	Series []Series
	// HighShare is the high-target pair's share in steady state; strict
	// priority would be ~1.0, Swift gives weighted sharing well below.
	HighShare float64
}

// Fig3b runs 2 high-priority (target base+15us) and 2 low-priority (target
// base+5us) Swift flows with target scaling: scaling re-inflates the low
// flows' targets as they shrink, yielding weighted sharing (§3.2).
func Fig3b(o Options) Fig3bResult {
	net := star(o, "", 5, 5, paperNoise, nil)
	mk := func(src int, off sim.Time) *cc.Swift {
		base := net.Topo.BaseRTT(src, 4)
		cfg := cc.DefaultSwiftConfig(base, net.BDPPackets(src, 4))
		cfg.Target = base + off
		cfg.TargetScaling = true
		return cc.NewSwift(cfg)
	}
	for i := 0; i < 2; i++ {
		net.AddFlow(harness.Flow{Src: i, Dst: 4, Size: 1 << 30, Prio: 0, Algo: mk(i, 15*sim.Microsecond)})
		net.AddFlow(harness.Flow{Src: i + 2, Dst: 4, Size: 1 << 30, Prio: 0, Algo: mk(i+2, 5*sim.Microsecond)})
	}
	dur := 4 * sim.Millisecond
	rs := net.SampleRates(4, func(p *netsim.Packet) int { return p.Src / 2 }, 50*sim.Microsecond, dur)
	net.Run(dur)
	hi := rs.Between(dur/2, dur, 0)
	lo := rs.Between(dur/2, dur, 1)
	return Fig3bResult{
		Series:    []Series{seriesFrom(rs, 0, "high pair"), seriesFrom(rs, 1, "low pair")},
		HighShare: hi / (hi + lo),
	}
}

// Fig3cResult quantifies Swift-without-scaling under 300 flows.
type Fig3cResult struct {
	// UtilBefore is link utilization while only the 300 low flows run;
	// fluctuation above the low target causes underutilization (O2).
	UtilBefore float64
	// HighShareAfter is the single high flow's share once it starts; the
	// fluctuations push it to decelerate (O1).
	HighShareAfter float64
	// OverLimitFrac is the fraction of delay samples beyond the high
	// flow's target while only low flows run.
	OverLimitFrac float64
}

// Fig3c runs 300 low-priority Swift flows (no scaling, target base+5us)
// against one high flow (target base+15us) starting at 2 ms.
func Fig3c(nLow int, o Options) Fig3cResult {
	net := star(o, "", nLow+2, 7, paperNoise, nil)
	recv := nLow + 1
	mk := func(src int, off sim.Time) *cc.Swift {
		base := net.Topo.BaseRTT(src, recv)
		cfg := cc.DefaultSwiftConfig(base, net.BDPPackets(src, recv))
		// The paper's queue-fluctuation argument assumes Swift's stock AI
		// step (~1 packet); the fluctuation of n flows is n*AI/LineRate.
		cfg.AI = 1
		cfg.Target = base + off
		return cc.NewSwift(cfg)
	}
	for i := 0; i < nLow; i++ {
		net.AddFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0, Algo: mk(i, 5*sim.Microsecond)})
	}
	net.AddFlow(harness.Flow{Src: nLow, Dst: recv, Size: 1 << 30, Prio: 0,
		Algo: mk(nLow, 15*sim.Microsecond), StartAt: 2 * sim.Millisecond})
	var over, samples int
	sampleQueueDelay(net, recv, sim.Millisecond, 5*sim.Microsecond, 300, func(wait sim.Time) {
		samples++
		if wait > 15*sim.Microsecond {
			over++
		}
	})
	dur := 4 * sim.Millisecond
	rs := net.SampleRates(recv, func(p *netsim.Packet) int {
		if p.Src == nLow {
			return 1
		}
		return 0
	}, 50*sim.Microsecond, dur)
	net.Run(dur)
	lowBefore := rs.Between(sim.Millisecond, 2*sim.Millisecond, 0)
	hiAfter := rs.Between(3*sim.Millisecond, dur, 1)
	loAfter := rs.Between(3*sim.Millisecond, dur, 0)
	return Fig3cResult{
		UtilBefore:     lowBefore / 100,
		HighShareAfter: hiAfter / (hiAfter + loAfter),
		OverLimitFrac:  float64(over) / float64(samples),
	}
}

// Fig3dResult quantifies the §3.3 trade-offs.
type Fig3dResult struct {
	// ExtraQueueOnStart is the additional queue (bytes) caused by the low
	// flows' line-rate start into a busy link.
	ExtraQueueOnStart int
	// ReclaimDelay is how long after the high flows stop the low flow
	// needs to reach 50% of the link (the min-rate/ack-clock stall).
	ReclaimDelay sim.Time
}

// Fig3d runs 2+2 Swift flows without scaling: the low pair starts at
// 100 us (line-rate start hurts the high pair), the high pair stops at
// 2 ms (the low pair reclaims slowly from its minimum rate).
func Fig3d(o Options) Fig3dResult {
	net := star(o, "", 5, 9, paperNoise, nil)
	eng := net.Eng
	mk := func(src int, off sim.Time) *cc.Swift {
		base := net.Topo.BaseRTT(src, 4)
		cfg := cc.DefaultSwiftConfig(base, net.BDPPackets(src, 4))
		cfg.Target = base + off
		return cc.NewSwift(cfg)
	}
	stopAt := 2 * sim.Millisecond
	// High pair: finite flows sized to finish right around stopAt.
	sizeHigh := int64(float64(stopAt.Seconds()) * 100e9 / 8 / 2)
	var highEnd sim.Time
	for i := 0; i < 2; i++ {
		net.AddFlow(harness.Flow{Src: i, Dst: 4, Size: sizeHigh, Prio: 0,
			Algo:       mk(i, 15*sim.Microsecond),
			OnComplete: func(sim.Time) { highEnd = eng.Now() }})
	}
	for i := 2; i < 4; i++ {
		net.AddFlow(harness.Flow{Src: i, Dst: 4, Size: 1 << 30, Prio: 0,
			Algo: mk(i, 5*sim.Microsecond), StartAt: 100 * sim.Microsecond})
	}
	// Queue just before and shortly after the low flows' line-rate start.
	var qBefore, qPeak int
	eng.At(99*sim.Microsecond, func() { qBefore = net.Topo.Switches[0].Ports[4].TotalQueuedBytes() })
	for i := 0; i < 40; i++ {
		eng.At(100*sim.Microsecond+sim.Time(i)*2*sim.Microsecond, func() {
			if q := net.Topo.Switches[0].Ports[4].TotalQueuedBytes(); q > qPeak {
				qPeak = q
			}
		})
	}
	// Swift's additive increase is slow: reclaiming the link from the
	// minimum rate takes many milliseconds (the §3.3 signal-frequency
	// trade-off), so the horizon is generous.
	dur := 30 * sim.Millisecond
	rs := net.SampleRates(4, func(p *netsim.Packet) int { return p.Src / 2 }, 20*sim.Microsecond, dur)
	net.Run(dur)
	reclaim := dur - highEnd // pessimistic: never reclaimed in-horizon
	for i, t := range rs.Times {
		if t > highEnd && rs.Rates[i][1] >= 50 {
			reclaim = t - highEnd
			break
		}
	}
	return Fig3dResult{ExtraQueueOnStart: qPeak - qBefore, ReclaimDelay: reclaim}
}

// Fig8Result compares PrioPlus+Swift with multi-target Swift on the
// staggered 4-priority ladder of the testbed experiment.
type Fig8Result struct {
	Scheme string
	Series []Series
	// DominanceFrac is the mean share the expected-dominant priority
	// holds over the measurement phases.
	DominanceFrac float64
}

// Fig8 runs the testbed experiment in simulation: priorities 3-6, two
// flows each, starting low-to-high at `interval` and ending in the same
// order (modeled by finite sizes). 10 Gb/s links as in the testbed.
//
// The run is tagged "pp" or "swift". With a recorder carrying a FlowTracer
// this is the canonical yield/reclaim tracing scenario: flow IDs are
// assigned in start order, so flows 1-2 are the lowest priority (channel 2,
// start t=0) and flows 7-8 the highest (channel 5, start 3*interval);
// `prioplus-sim trace -flows 1,7` renders the paper's Fig 8 interleaving.
func Fig8(usePrioPlus bool, interval sim.Time, o Options) Fig8Result {
	name, tag := "Swift-multi-target", "swift"
	if usePrioPlus {
		name, tag = "PrioPlus+Swift", "pp"
	}
	net := star(o, tag, 9, 11, paperNoise, func(cfg *topo.Config) {
		cfg.HostRate = 10 * netsim.Gbps
	})
	recv := 8
	base := net.Topo.BaseRTT(0, recv)
	plan := core.DefaultPlan(base)
	// Four adjacent priorities (the paper's 1-indexed 3,4,5,6 = channel
	// indices 2..5), two flows each; flow sizes chosen so each priority
	// transmits for several intervals after all have started.
	for pi, prio := range []int{2, 3, 4, 5} {
		start := sim.Time(pi) * interval
		lifetime := sim.Time(8-pi) * interval
		size := int64(float64(lifetime.Seconds()) * 10e9 / 8) // would fill the link alone
		for j := 0; j < 2; j++ {
			src := pi*2 + j
			bdp := net.BDPPackets(src, recv)
			scfg := cc.DefaultSwiftConfig(base, bdp)
			var algo cc.Algorithm
			if usePrioPlus {
				algo = core.New(cc.NewSwift(scfg), core.DefaultConfig(plan.Channel(prio), 8))
			} else {
				scfg.Target = plan.Channel(prio).Target
				algo = cc.NewSwift(scfg)
			}
			net.AddFlow(harness.Flow{Src: src, Dst: recv, Size: size / 3, Prio: 0, Algo: algo, StartAt: start})
		}
	}
	dur := 8 * interval
	rs := net.SampleRates(recv, func(p *netsim.Packet) int { return p.Src / 2 }, interval/40, dur)
	net.Run(dur)
	// While priorities are starting (phases 1-3), the newest (highest)
	// should dominate.
	var dom float64
	n := 0
	for pi := 1; pi < 4; pi++ {
		from := sim.Time(pi)*interval + interval/2
		to := sim.Time(pi+1) * interval
		var total float64
		for k := 0; k < 4; k++ {
			total += rs.Between(from, to, k)
		}
		if total > 0 {
			dom += rs.Between(from, to, pi) / total
			n++
		}
	}
	res := Fig8Result{Scheme: name}
	// A tripped watchdog can stop the run before the first phase.
	if n > 0 {
		res.DominanceFrac = dom / float64(n)
	}
	for k, prio := range []int{3, 4, 5, 6} {
		res.Series = append(res.Series, seriesFrom(rs, k, tag+"-prio"+string(rune('0'+prio))))
	}
	return res
}

// Fig9Result compares delay containment with inflated AI steps.
type Fig9Result struct {
	Scheme        string
	OverLimitFrac float64 // fraction of queue-delay samples above D_limit
}

// Fig9 reproduces the delay-fluctuation experiment: four flows with
// W_AI inflated to ~5x the recommended value (0.75 KB) and W_LS of half
// the base BDP. PrioPlus's cardinality estimation contains the delay;
// Swift's fluctuations repeatedly exceed the threshold. 10 Gb/s links.
func Fig9(usePrioPlus bool, o Options) Fig9Result {
	net := star(o, "", 6, 13, paperNoise, func(cfg *topo.Config) {
		cfg.HostRate = 10 * netsim.Gbps
	})
	recv := 5
	base := net.Topo.BaseRTT(0, recv)
	// The paper's testbed uses priority 6 (1-indexed): target base+24 us,
	// quoted as 37/39.4 us absolute with its 13 us RTT. That is channel
	// index 5 here.
	plan := core.DefaultPlan(base)
	ch := plan.Channel(5)
	for i := 0; i < 4; i++ {
		bdp := net.BDPPackets(i, recv)
		scfg := cc.DefaultSwiftConfig(base, bdp)
		scfg.AI = 0.75 // ~0.75 KB per RTT, ~5x recommended
		scfg.Target = ch.Target
		var algo cc.Algorithm
		if usePrioPlus {
			ppc := core.DefaultConfig(ch, 8)
			ppc.WLSFraction = 0.5 // half base BDP, per the testbed setup
			algo = core.New(cc.NewSwift(scfg), ppc)
		} else {
			algo = cc.NewSwift(scfg)
		}
		net.AddFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0, Algo: algo})
	}
	var over, samples int
	sampleQueueDelay(net, recv, sim.Millisecond, 5*sim.Microsecond, 800, func(wait sim.Time) {
		samples++
		if base+wait > ch.Limit {
			over++
		}
	})
	net.Run(5 * sim.Millisecond)
	name := "Swift"
	if usePrioPlus {
		name = "PrioPlus+Swift"
	}
	return Fig9Result{Scheme: name, OverLimitFrac: float64(over) / float64(samples)}
}

// Fig10bResult reports delay containment in the 300-flow incast.
type Fig10bResult struct {
	WithinFrac float64 // fraction of steady-state samples within the channel
	MeanDelay  sim.Time
	Target     sim.Time
}

// Fig10b starts n same-priority PrioPlus flows simultaneously (incast)
// with D_target = base+20us and measures delay containment. The run is
// tagged "incast"; a recorder (time series, histograms, trace — whatever it
// enables) does not change figure output: the sampler and histograms only
// read simulator state.
func Fig10b(n int, o Options) Fig10bResult {
	net := star(o, "incast", n+2, 17, paperNoise, nil)
	recv := n + 1
	base := net.Topo.BaseRTT(0, recv)
	ch := core.DefaultPlan(base).Channel(4) // target = base + 20 us, as in Fig 10b
	for i := 0; i < n; i++ {
		net.AddFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0, Algo: ppSwiftTo(net, i, recv, ch)})
	}
	var within, samples int
	var sum sim.Time
	sampleQueueDelay(net, recv, sim.Millisecond, 5*sim.Microsecond, 600, func(wait sim.Time) {
		samples++
		sum += base + wait
		if base+wait <= ch.Limit+2*sim.Microsecond {
			within++
		}
	})
	net.Run(4 * sim.Millisecond)
	res := Fig10bResult{Target: ch.Target}
	// A tripped watchdog can stop the run before any sample fires.
	if samples > 0 {
		res.WithinFrac = float64(within) / float64(samples)
		res.MeanDelay = sum / sim.Time(samples)
	}
	return res
}

// Fig10cResult compares dual-RTT with every-RTT adaptive increase.
type Fig10cResult struct {
	DualRTT  TakeoverStats
	EveryRTT TakeoverStats
}

// TakeoverStats quantifies a preemption transient.
type TakeoverStats struct {
	// TakeoverTime is when the high group first reaches 90% of the link.
	TakeoverTime sim.Time
	// RateVar is the sample variance of the high group's rate (Gb/s
	// squared) after takeover; overreaction shows up as large swings.
	RateVar float64
}

// Fig10c runs 10 high-priority flows preempting 10 low-priority flows,
// with dual-RTT gating on and off, one engine per variant; Seed, Faults,
// and Perturb thread through to both.
func Fig10c(o Options) Fig10cResult {
	run := func(everyRTT bool) TakeoverStats {
		net := star(o, "", 21, 19, paperNoise, nil)
		recv := 20
		plan := core.DefaultPlan(net.Topo.BaseRTT(0, recv))
		for i := 0; i < 10; i++ {
			net.AddFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0,
				Algo: ppSwiftTo(net, i, recv, plan.Channel(1))})
		}
		for i := 10; i < 20; i++ {
			ppc := core.DefaultConfig(plan.Channel(6), 8)
			ppc.AdaptiveEveryRTT = everyRTT
			net.AddFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0,
				Algo: core.New(swiftTo(net, i, recv), ppc), StartAt: sim.Millisecond})
		}
		dur := 4 * sim.Millisecond
		rs := net.SampleRates(recv, func(p *netsim.Packet) int { return p.Src / 10 }, 20*sim.Microsecond, dur)
		net.Run(dur)
		st := TakeoverStats{}
		for i, t := range rs.Times {
			if t > sim.Millisecond && rs.Rates[i][1] >= 90 {
				st.TakeoverTime = t - sim.Millisecond
				break
			}
		}
		var vals []float64
		for i, t := range rs.Times {
			if st.TakeoverTime > 0 && t > sim.Millisecond+st.TakeoverTime+200*sim.Microsecond {
				vals = append(vals, rs.Rates[i][1])
			}
		}
		if len(vals) > 1 {
			var mean, ss float64
			for _, v := range vals {
				mean += v
			}
			mean /= float64(len(vals))
			for _, v := range vals {
				ss += (v - mean) * (v - mean)
			}
			st.RateVar = ss / float64(len(vals)-1)
		}
		return st
	}
	return Fig10cResult{DualRTT: run(false), EveryRTT: run(true)}
}

// Fig10dPoint is one (noise scale, channel width) utilization measurement.
type Fig10dPoint struct {
	NoiseScale float64
	WidthUS    float64 // channel width A+B in microseconds
	Util       float64
}

// Fig10dConfig is the sweep grid for the noise-vs-channel-width study.
type Fig10dConfig struct {
	// Scales multiplies the long-tail noise model's amplitude.
	Scales []float64
	// WidthsUS is the channel width A+B in microseconds.
	WidthsUS []float64
}

// DefaultFig10dConfig returns the suite's sweep grid.
func DefaultFig10dConfig() Fig10dConfig {
	return Fig10dConfig{Scales: []float64{1, 2, 4, 8}, WidthsUS: []float64{1, 2, 4, 8, 12, 16}}
}

// Fig10d sweeps noise scale x channel width for 5 same-priority flows and
// reports utilization; the paper shows the width needed for >98%
// utilization grows linearly with the noise. Every cell is a private
// engine on the published topology seed (21) with the noise RNG 8 above it
// (29), both of which follow an o.Seed override.
func Fig10d(fc Fig10dConfig, o Options) []Fig10dPoint {
	var out []Fig10dPoint
	for _, sc := range fc.Scales {
		for _, w := range fc.WidthsUS {
			net := star(o, "", 7, 21, longTail{off: 8, scale: sc}, nil)
			recv := 6
			base := net.Topo.BaseRTT(0, recv)
			plan := core.ChannelPlan{
				BaseRTT:     base,
				Fluctuation: sim.Time(w * 0.8 * float64(sim.Microsecond)),
				Noise:       sim.Time(w * 0.2 * float64(sim.Microsecond)),
			}
			for i := 0; i < 5; i++ {
				net.AddFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0,
					Algo: ppSwiftTo(net, i, recv, plan.Channel(1))})
			}
			dur := 3 * sim.Millisecond
			rs := net.SampleRates(recv, func(*netsim.Packet) int { return 0 }, 100*sim.Microsecond, dur)
			net.Run(dur)
			out = append(out, Fig10dPoint{
				NoiseScale: sc,
				WidthUS:    w,
				Util:       rs.Between(sim.Millisecond, dur, 0) / 100,
			})
		}
	}
	return out
}

// Fig10a runs the 8-priority, 30-flows-each staggered ladder and returns
// the per-interval dominance of the newest priority.
func Fig10a(perPrio int, interval sim.Time, o Options) []float64 {
	net := star(o, "", 8*perPrio+2, 23, paperNoise, nil)
	recv := 8 * perPrio
	plan := core.DefaultPlan(net.Topo.BaseRTT(0, recv))
	for prio := 0; prio < 8; prio++ {
		for j := 0; j < perPrio; j++ {
			src := prio*perPrio + j
			net.AddFlow(harness.Flow{Src: src, Dst: recv, Size: 1 << 30, Prio: 0,
				Algo: ppSwiftTo(net, src, recv, plan.Channel(prio)), StartAt: sim.Time(prio) * interval})
		}
	}
	dur := 8 * interval
	rs := net.SampleRates(recv, func(p *netsim.Packet) int { return p.Src / perPrio }, interval/20, dur)
	net.Run(dur)
	shares := make([]float64, 8)
	for prio := 0; prio < 8; prio++ {
		from := sim.Time(prio)*interval + interval*3/4
		to := sim.Time(prio+1) * interval
		var total float64
		for k := 0; k < 8; k++ {
			total += rs.Between(from, to, k)
		}
		if total > 0 {
			shares[prio] = rs.Between(from, to, prio) / total
		}
	}
	return shares
}

// Fig13Point is one (tolerable noise setting, non-congestive range) cell.
type Fig13Point struct {
	ToleranceUS float64
	RangeUS     float64
	GapPerFlow  float64 // normalized FCT gap vs Physical, averaged per flow
}

// Fig13Config is the sweep grid for the non-congestive-delay study.
type Fig13Config struct {
	// TolerancesUS is the channel noise budget B, in microseconds.
	TolerancesUS []float64
	// RangesUS is the injected non-congestive jitter range, in microseconds.
	RangesUS []float64
}

// DefaultFig13Config returns the suite's sweep grid.
func DefaultFig13Config() Fig13Config {
	return Fig13Config{
		TolerancesUS: []float64{10, 20, 30},
		RangesUS:     []float64{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40},
	}
}

// Fig13 evaluates PrioPlus under non-congestive delay: uniform jitter of
// the given range is injected at the bottleneck, with the channel noise
// budget B set to each tolerance. The gap vs an ideal-physical run of the
// same workload stays small until the range exceeds the tolerance. Each
// cell is a private engine on the published topology seed (31) with the
// jitter RNG 6 above it (37), both of which follow an o.Seed override.
// Perturb does not apply — this scenario injects jitter instead of the
// measurement-noise model the perturbation hooks into.
func Fig13(fc Fig13Config, o Options) []Fig13Point {
	tolerancesUS, rangesUS := fc.TolerancesUS, fc.RangesUS
	// Workload: the Fig 8 testbed ladder (10G, four adjacent priorities,
	// two flows each, staggered 4 ms) with finite flows. The physical
	// baseline also runs under the non-congestive delay; its Swift target
	// is widened by the NC range, since an operator deploying plain Swift
	// in such a network must budget the known non-congestive delay too
	// (§4.3.2's "incorporate the fixed part into the base RTT and the
	// variable part into delay noise").
	const horizon = 60 * sim.Millisecond
	runOne := func(tolUS, rngUS float64, usePP bool) []sim.Time {
		net := star(o, "", 9, 31, longTail{}, func(cfg *topo.Config) {
			cfg.HostRate = 10 * netsim.Gbps
			if !usePP {
				cfg.Queues = 9
				cfg.Buffer.HeadroomFree = true
			}
		})
		jrng := rand.New(rand.NewSource(o.seedOr(31) + 6))
		recv := 8
		if rngUS > 0 {
			width := sim.Time(rngUS * float64(sim.Microsecond))
			net.Topo.Switches[0].Ports[recv].SetJitter(func() sim.Time {
				return sim.Time(jrng.Int63n(int64(width)))
			})
		}
		base := net.Topo.BaseRTT(0, recv)
		plan := core.ChannelPlan{
			BaseRTT:     base,
			Fluctuation: 3200 * sim.Nanosecond,
			Noise:       sim.Time(tolUS * float64(sim.Microsecond)),
		}
		fcts := make([]sim.Time, 8)
		starts := make([]sim.Time, 8)
		interval := 4 * sim.Millisecond
		for pi, prio := range []int{2, 3, 4, 5} {
			start := sim.Time(pi) * interval
			// Each pair carries two intervals' worth of service (5 MB per
			// flow = 8 ms per pair at 10G), reproducing the paper's
			// "start at 4 ms intervals and end at 4 ms intervals"
			// schedule, with FCTs of 8-32 ms that amortize takeover
			// transients.
			size := int64(5e6)
			for j := 0; j < 2; j++ {
				src := pi*2 + j
				idx := pi*2 + j
				scfg := cc.DefaultSwiftConfig(base, net.BDPPackets(src, recv))
				var algo cc.Algorithm
				var queue int
				if usePP {
					algo = core.New(cc.NewSwift(scfg), core.DefaultConfig(plan.Channel(prio), 8))
				} else {
					scfg.Target += sim.Time(rngUS * float64(sim.Microsecond))
					algo = cc.NewSwift(scfg)
					queue = prio
				}
				starts[idx] = start
				net.AddFlow(harness.Flow{Src: src, Dst: recv, Size: size, Prio: queue, Algo: algo,
					StartAt: start, OnComplete: func(d sim.Time) { fcts[idx] = d }})
			}
		}
		net.Run(horizon)
		for i := range fcts {
			if fcts[i] == 0 {
				fcts[i] = horizon - starts[i] // pessimistic: unfinished
			}
		}
		return fcts
	}
	var out []Fig13Point
	// The reference is the clean (no non-congestive delay) physical run:
	// a fixed denominator isolates how PrioPlus itself degrades as the
	// non-congestive range grows, rather than conflating it with plain
	// Swift's own sensitivity to the same jitter.
	phys := runOne(0, 0, false)
	for _, tol := range tolerancesUS {
		for _, rng := range rangesUS {
			pp := runOne(tol, rng, true)
			gap := 0.0
			n := 0
			for i := range pp {
				if phys[i] > 0 && pp[i] > 0 {
					d := float64(pp[i]-phys[i]) / float64(phys[i])
					if d < 0 {
						d = -d
					}
					gap += d
					n++
				}
			}
			if n > 0 {
				gap /= float64(n)
			}
			out = append(out, Fig13Point{ToleranceUS: tol, RangeUS: rng, GapPerFlow: gap})
		}
	}
	return out
}

// Table2Row is one start strategy's analytic and simulated cost.
type Table2Row struct {
	Strategy       string
	BytesDelayed   string // analytic, in BDP
	MaxExtraBuffer string // analytic, in BDP
	SimExtraBDP    float64
}

// Table2 reproduces the start-strategy comparison: analytic values from
// §4.2.2 plus a simulated "extra buffer" measurement of a flow starting
// into a 50%-utilized link (n = 8 RTTs to line rate for the ramped
// strategies). The published seed (41) holds unless o overrides it; the
// scenario runs without the noise model by design (see below), so Perturb
// does not apply, and each strategy is a private engine.
func Table2(o Options) []Table2Row {
	simulate := func(kind string) float64 {
		// The Table 2 analysis is an idealized start-transient argument;
		// measurement noise would blur the freeze threshold, so this
		// scenario runs the micro star without a noise model.
		net := star(o, "", 4, 41, longTail{}, nil)
		eng := net.Eng
		recv := 3
		base := net.Topo.BaseRTT(0, recv)
		bdp := 100e9 / 8 * base.Seconds()
		// Background: one flow pinned at 50% utilization. Both flows are
		// paced, as the fluid analysis (and real NICs) assume.
		net.AddFlow(harness.Flow{Src: 0, Dst: recv, Size: 1 << 30, Prio: 0,
			Algo: &fixedRate{cwndPkts: bdp / 2000}, Paced: true})
		var algo cc.Algorithm
		switch kind {
		case "line-rate":
			// RDMA-style: a full window immediately; inflight is bounded
			// by the window, so at most ~1 BDP of extra queue.
			algo = &fixedRate{cwndPkts: bdp / 1000}
		case "exponential":
			algo = &rampStart{exponential: true, n: 8}
		case "linear":
			algo = &rampStart{n: 8}
		}
		net.AddFlow(harness.Flow{Src: 1, Dst: recv, Size: 1 << 30, Prio: 0,
			Algo: algo, StartAt: sim.Millisecond, Paced: true})
		var qBefore, qPeak int
		eng.At(sim.Millisecond-sim.Microsecond, func() {
			qBefore = net.Topo.Switches[0].Ports[recv].TotalQueuedBytes()
		})
		for i := 0; i < 400; i++ {
			eng.At(sim.Millisecond+sim.Time(i)*sim.Microsecond, func() {
				if q := net.Topo.Switches[0].Ports[recv].TotalQueuedBytes(); q > qPeak {
					qPeak = q
				}
			})
		}
		net.Run(sim.Millisecond + 400*sim.Microsecond)
		return float64(qPeak-qBefore) / bdp
	}
	return []Table2Row{
		{"line-rate", "0", "1 BDP", simulate("line-rate")},
		{"exponential", "n-3/2 BDP", "0.5 BDP", simulate("exponential")},
		{"linear", "n/2 BDP", "1/n BDP", simulate("linear")},
	}
}

// fixedRate holds a constant window (background traffic for Table 2).
type fixedRate struct {
	drv      cc.Driver
	cwndPkts float64
}

func (f *fixedRate) Start(drv cc.Driver)    { f.drv = drv }
func (f *fixedRate) OnAck(cc.Feedback)      {}
func (f *fixedRate) OnProbeAck(cc.Feedback) {}
func (f *fixedRate) OnRTO()                 {}
func (f *fixedRate) CwndBytes() float64     { return f.cwndPkts * float64(f.drv.MTU()) }
func (f *fixedRate) WantsECT() bool         { return false }
func (f *fixedRate) Name() string           { return "fixed" }

// rampStart reaches one BDP in n RTTs, linearly or exponentially — the
// sender model behind Table 2's analysis. Queue buildup is detected from
// the per-RTT minimum delay (transient bursts drain within the RTT; only a
// standing queue survives the minimum), one RTT late by construction —
// exactly the lag that creates the overshoot. On detection the sender
// reacts once (halves its window) and stops ramping.
type rampStart struct {
	frozen      bool
	drv         cc.Driver
	exponential bool
	n           int
	rttEnd      int64
	rtts        int
	cwnd        float64
	minDelay    sim.Time
}

func (r *rampStart) Start(drv cc.Driver) {
	r.drv = drv
	bdp := drv.LineRate().BDP(drv.BaseRTT()) / float64(drv.MTU())
	if r.exponential {
		r.cwnd = bdp / float64(int(1)<<r.n)
	} else {
		r.cwnd = bdp / float64(r.n)
	}
}

func (r *rampStart) OnAck(fb cc.Feedback) {
	if r.minDelay == 0 || fb.Delay < r.minDelay {
		r.minDelay = fb.Delay
	}
	// Queue buildup is observed through the ACK of a packet that crossed
	// the queue — inherently about one RTT after the sender caused it,
	// which is exactly the detection lag of the §4.2.2 analysis. React
	// once, then hold.
	if !r.frozen && fb.Delay > r.drv.BaseRTT()+400*sim.Nanosecond {
		r.frozen = true
		r.cwnd /= 2
	}
	if fb.Seq >= r.rttEnd {
		r.rttEnd = r.drv.SndNxt()
		r.rtts++
	}
	if r.frozen || r.rtts > r.n {
		return
	}
	// Ack-paced growth spreads each RTT's increase across the RTT, as the
	// fluid analysis assumes.
	ackedPkts := float64(fb.AckedBytes) / float64(r.drv.MTU())
	bdp := r.drv.LineRate().BDP(r.drv.BaseRTT()) / float64(r.drv.MTU())
	if r.exponential {
		r.cwnd += ackedPkts // doubles once per RTT
	} else {
		r.cwnd += bdp / float64(r.n) * ackedPkts / r.cwnd
	}
	if r.cwnd > bdp {
		r.cwnd = bdp
	}
}
func (r *rampStart) OnProbeAck(cc.Feedback) {}
func (r *rampStart) OnRTO()                 {}
func (r *rampStart) CwndBytes() float64     { return r.cwnd * float64(r.drv.MTU()) }
func (r *rampStart) WantsECT() bool         { return false }
func (r *rampStart) Name() string           { return "ramp" }

// AppDResult compares measured Swift delay fluctuation with the Appendix D
// bound.
type AppDResult struct {
	N           int
	MeasuredUS  float64
	BoundUS     float64
	WithinBound bool
}

// AppD measures the steady-state delay fluctuation of n synchronized
// Swift flows against the analytic bound n*W_AI/R + max(n*beta*W_AI /
// (R*T), mdf)*T.
func AppD(ns []int) []AppDResult {
	var out []AppDResult
	for _, n := range ns {
		net := star(Options{}, "", n+2, 43, paperNoise, nil)
		recv := n + 1
		base := net.Topo.BaseRTT(0, recv)
		var scfg cc.SwiftConfig
		for i := 0; i < n; i++ {
			scfg = cc.DefaultSwiftConfig(base, net.BDPPackets(i, recv))
			net.AddFlow(harness.Flow{Src: i, Dst: recv, Size: 1 << 30, Prio: 0,
				Algo: cc.NewSwift(scfg)})
		}
		minD, maxD := sim.Time(1<<62), sim.Time(0)
		sampleQueueDelay(net, recv, 2*sim.Millisecond, 5*sim.Microsecond, 400, func(d sim.Time) {
			minD, maxD = min(minD, d), max(maxD, d)
		})
		net.Run(4 * sim.Millisecond)
		target := float64(scfg.Target-base) / float64(sim.Microsecond)
		wai := scfg.AI * 1000 // bytes
		r := 100e9 / 8
		bound := float64(n)*wai/r*1e6 + max(float64(n)*scfg.Beta*wai/(r*target*1e-6)*1e-6, scfg.MaxMDF)*target
		measured := float64(maxD-minD) / float64(sim.Microsecond)
		out = append(out, AppDResult{
			N:          n,
			MeasuredUS: measured,
			BoundUS:    bound,
			// The bound is worst-case (synchronized flows); measured
			// fluctuation must not exceed it by more than jitter.
			WithinBound: measured <= bound*1.25+1,
		})
	}
	return out
}

// ChipRatio is one switch generation's buffer/bandwidth ratio (Fig 2).
type ChipRatio struct {
	Chip      string
	Year      int
	BufferMB  float64
	BandTbps  float64
	RatioMBpT float64
}

// Fig2 returns the buffer-per-bandwidth data of representative Broadcom
// switch chips, the paper's motivation for scarce lossless priorities.
// The data is static; Options is accepted for the uniform driver shape
// every registered spec shares and is otherwise unused.
func Fig2(o Options) []ChipRatio {
	_ = o
	data := []ChipRatio{
		{"Trident+", 2010, 9, 0.64, 0},
		{"Trident2", 2013, 12, 1.28, 0},
		{"Tomahawk", 2015, 16, 3.2, 0},
		{"Tomahawk2", 2016, 22, 6.4, 0},
		{"Tomahawk3", 2018, 64, 12.8, 0},
		{"Tomahawk4", 2020, 113, 25.6, 0},
	}
	for i := range data {
		data[i].RatioMBpT = data[i].BufferMB / data[i].BandTbps
	}
	return data
}

// Fig7Config sizes the delay-noise measurement.
type Fig7Config struct {
	// Samples is the number of noise draws for the CDF and the summary
	// statistics.
	Samples int
}

// DefaultFig7Config returns the suite's sampling size.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{Samples: 200_000}
}

// Fig7 returns the delay-noise CDF and summary statistics of the noise
// model, matching the paper's testbed measurement. The published RNG seed
// (47) holds unless o overrides it; Perturb does not apply (the draws are
// the measurement itself, not simulation inputs).
func Fig7(cfg Fig7Config, o Options) ([][2]float64, noise.Stats) {
	seed := o.seedOr(47)
	m := noise.NewLongTail(rand.New(rand.NewSource(seed)), 1)
	cdf := noise.CDF(m, cfg.Samples, 40)
	m2 := noise.NewLongTail(rand.New(rand.NewSource(seed)), 1)
	return cdf, noise.Measure(m2, cfg.Samples)
}
