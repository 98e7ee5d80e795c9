package exp

import (
	"fmt"
	"io"

	"prioplus/internal/sim"
	"prioplus/internal/stats"
)

// This file registers every experiment as a Spec, in suite order — the
// single source of truth the CLI dispatch, the `all` batch runner, usage
// text, and the serve layer's /experiments endpoint all derive from. The
// figure bytes the Run bodies produce, and which runs ask for a recorder
// under which tag, are pinned by testdata/fingerprints.json, so a change
// here is a behavioral change to the suite.
//
// Seed discipline (the invariant that keeps the manifest stable): the
// micro experiments are called with their published baked-in seeds — the
// caller's Seed parameter deliberately does not reach them — while the
// config-driven scenarios (fig11..fig18, faultsweep) take cfg.Seed from
// the parameters (scenarioOptions). This mirrors what the CLI's -seed flag
// has always done.

// defaults are the parameter values shared by every spec: seed 1, quick
// scale.
var defaults = RunParams{Seed: 1}

// scenarioOptions turns a spec's micro-driver Options into those of a
// config-driven scenario: the caller's seed applies, the perturbation does
// not.
func scenarioOptions(p RunParams, o Options) Options {
	return Options{Seed: p.Seed, NewRecorder: o.NewRecorder}
}

// flowSchedAt is the flow-scheduling set-up of fig11, fig14 and fig16: the
// paper's k=6 fat-tree with -full, a k=4 tree over a shorter horizon
// without.
func flowSchedAt(p RunParams, o Options, nprios int) FlowSchedConfig {
	cfg := DefaultFlowSchedConfig(PrioPlusSwift(), nprios)
	cfg.Options = scenarioOptions(p, o)
	if !p.Full {
		cfg.K = 4
		cfg.Duration = 5 * sim.Millisecond
		cfg.Drain = 20 * sim.Millisecond
	}
	return cfg
}

// coflowAt is the coflow set-up of fig12ab, fig15, fig17 and fig18: the
// paper's 320-host fabric over a longer horizon with -full, the reduced
// default without.
func coflowAt(p RunParams, o Options, load float64) CoflowConfig {
	cfg := DefaultCoflowConfig(PrioPlusSwift(), load)
	cfg.Options = scenarioOptions(p, o)
	if p.Full {
		cfg = cfg.PaperScale()
		cfg.Duration = 100 * sim.Millisecond
		cfg.Drain = 400 * sim.Millisecond
	}
	return cfg
}

func init() {
	// A spec hands its drivers one Options: the perturbation, and the
	// sink's recorder factory when the execution is instrumented.
	reg := func(id, describe string, run func(p RunParams, o Options, w io.Writer) error) {
		Register(Spec{ID: id, Describe: describe, Defaults: defaults,
			Run: func(p RunParams, sink Sink, w io.Writer) error {
				o := Options{Perturb: p.Perturb}
				if sink != nil {
					o.NewRecorder = sink.Recorder
				}
				return run(p, o, w)
			}})
	}

	reg("fig2", "switch-chip buffer/bandwidth ratios", func(p RunParams, o Options, w io.Writer) error {
		tb := stats.NewTable("chip", "year", "buffer(MB)", "bandwidth(Tbps)", "MB/Tbps")
		for _, r := range Fig2(o) {
			tb.AddRow(r.Chip, r.Year, r.BufferMB, r.BandTbps, r.RatioMBpT)
		}
		tb.Render(w)
		return nil
	})

	reg("fig3a", "motivation: D2TCP deadline flows on one queue", func(p RunParams, o Options, w io.Writer) error {
		r := Fig3a(8<<20, o)
		fmt.Fprintf(w, "D2TCP, deadlines 1x/2x ideal FCT on one queue\n")
		fmt.Fprintf(w, "  high-priority share during contention: %.2f (strict would be ~1.0)\n", r.HighShare)
		fmt.Fprintf(w, "  high-priority FCT vs ideal: %.2fx (strict would be ~1.0x)\n", r.HighFCTvsIdeal)
		printSeries(w, p.Series, r.Series)
		return nil
	})

	reg("fig3b", "motivation: Swift with scaled targets", func(p RunParams, o Options, w io.Writer) error {
		r := Fig3b(o)
		fmt.Fprintf(w, "Swift + target scaling, targets base+15us vs base+5us\n")
		fmt.Fprintf(w, "  high-target share: %.2f (weighted sharing, violates O1)\n", r.HighShare)
		printSeries(w, p.Series, r.Series)
		return nil
	})

	reg("fig3c", "motivation: Swift w/o scaling, many low flows + one high", func(p RunParams, o Options, w io.Writer) error {
		n := 300
		if !p.Full {
			n = 100
		}
		r := Fig3c(n, o)
		fmt.Fprintf(w, "Swift w/o scaling, %d low flows + 1 high flow\n", n)
		fmt.Fprintf(w, "  utilization before high flow: %.2f (fluctuation causes waste, violates O2)\n", r.UtilBefore)
		fmt.Fprintf(w, "  delay above high target: %.0f%% of samples\n", r.OverLimitFrac*100)
		fmt.Fprintf(w, "  high flow share after start: %.2f (decelerates, violates O1)\n", r.HighShareAfter)
		return nil
	})

	reg("fig3d", "motivation: Swift w/o scaling trade-offs", func(p RunParams, o Options, w io.Writer) error {
		r := Fig3d(o)
		fmt.Fprintf(w, "Swift w/o scaling trade-offs (§3.3)\n")
		fmt.Fprintf(w, "  extra queue from line-rate start: %d B\n", r.ExtraQueueOnStart)
		fmt.Fprintf(w, "  reclaim delay after high flows stop: %v\n", r.ReclaimDelay)
		return nil
	})

	reg("fig7", "delay-noise CDF", func(p RunParams, o Options, w io.Writer) error {
		cdf, st := Fig7(DefaultFig7Config(), o)
		fmt.Fprintf(w, "delay noise: mean %v, P99 %v, P99.85 %v, P(>1us) %.4f\n",
			st.Mean, st.P99, st.P9985, st.FracGt1)
		if p.Series {
			for _, pt := range cdf {
				fmt.Fprintf(w, "  %.3fus %.4f\n", pt[0], pt[1])
			}
		}
		return nil
	})

	reg("fig8", "testbed ladder: PrioPlus vs multi-target Swift (10G)", func(p RunParams, o Options, w io.Writer) error {
		interval := 4 * sim.Millisecond
		if !p.Full {
			interval = 2 * sim.Millisecond
		}
		pp := Fig8(true, interval, o)
		sw := Fig8(false, interval, o)
		tb := stats.NewTable("scheme", "dominance of newest priority")
		tb.AddRow(pp.Scheme, pp.DominanceFrac)
		tb.AddRow(sw.Scheme, sw.DominanceFrac)
		tb.Render(w)
		printSeries(w, p.Series, pp.Series)
		return nil
	})

	reg("fig9", "delay containment with inflated AI steps (10G)", func(p RunParams, o Options, w io.Writer) error {
		pp := Fig9(true, o)
		sw := Fig9(false, o)
		tb := stats.NewTable("scheme", "frac of samples above D_limit")
		tb.AddRow(pp.Scheme, pp.OverLimitFrac)
		tb.AddRow(sw.Scheme, sw.OverLimitFrac)
		tb.Render(w)
		return nil
	})

	reg("fig10a", "PrioPlus staggered priority ladder", func(p RunParams, o Options, w io.Writer) error {
		// Adjacent-priority takeover needs a few ms (probe + one-packet
		// resume + capped adaptive increase), which is why the paper's
		// intervals are 5 ms.
		per, interval := 30, 5*sim.Millisecond
		if !p.Full {
			per, interval = 6, 5*sim.Millisecond
		}
		shares := Fig10a(per, interval, o)
		tb := stats.NewTable("priority", "share in own interval")
		for pr, s := range shares {
			tb.AddRow(pr, s)
		}
		tb.Render(w)
		return nil
	})

	reg("fig10b", "incast delay containment", func(p RunParams, o Options, w io.Writer) error {
		n := 300
		if !p.Full {
			n = 80
		}
		r := Fig10b(n, o)
		fmt.Fprintf(w, "%d-flow incast, D_target %v\n", n, r.Target)
		fmt.Fprintf(w, "  delay within channel: %.0f%% of samples; mean delay %v\n", r.WithinFrac*100, r.MeanDelay)
		return nil
	})

	reg("fig10c", "dual-RTT vs every-RTT adaptive increase", func(p RunParams, o Options, w io.Writer) error {
		r := Fig10c(o)
		tb := stats.NewTable("variant", "takeover time", "rate variance after")
		tb.AddRow("dual-RTT", r.DualRTT.TakeoverTime, r.DualRTT.RateVar)
		tb.AddRow("every-RTT", r.EveryRTT.TakeoverTime, r.EveryRTT.RateVar)
		tb.Render(w)
		return nil
	})

	reg("fig10d", "noise scale vs channel width utilization", func(p RunParams, o Options, w io.Writer) error {
		tb := stats.NewTable("noise scale", "channel width (us)", "utilization")
		for _, pt := range Fig10d(DefaultFig10dConfig(), o) {
			tb.AddRow(pt.NoiseScale, pt.WidthUS, pt.Util)
		}
		tb.Render(w)
		return nil
	})

	reg("fig11", "flow scheduling FCT vs #priorities (fat-tree)", func(p RunParams, o Options, w io.Writer) error {
		counts := []int{1, 2, 4, 6, 8, 12}
		if !p.Full {
			counts = []int{2, 4, 8}
		}
		printFig11(w, Fig11(counts, flowSchedAt(p, o, 8)))
		return nil
	})

	reg("fig12ab", "coflow CCT speedups at 40%/70% load", func(p RunParams, o Options, w io.Writer) error {
		for _, load := range []float64{0.4, 0.7} {
			fmt.Fprintf(w, "coflow CCT speedup vs Swift baseline, load %.0f%%\n", load*100)
			printCoflow(w, Fig12Coflow(coflowAt(p, o, load), false))
		}
		return nil
	})

	reg("fig12c", "ML training speedups (ResNet/VGG)", func(p RunParams, o Options, w io.Writer) error {
		cfg := DefaultMLConfig(PrioPlusSwift())
		cfg.Options = scenarioOptions(p, o)
		if p.Full {
			cfg.GradScale = 1
			cfg.Duration = sim.Second
		}
		tb := stats.NewTable("scheme", "ResNet speedup", "VGG speedup", "overall")
		for _, r := range Fig12ML(cfg) {
			tb.AddRow(r.Scheme, r.ResNet, r.VGG, r.Overall)
		}
		tb.Render(w)
		return nil
	})

	reg("fig13", "non-congestive delay tolerance", func(p RunParams, o Options, w io.Writer) error {
		tb := stats.NewTable("tolerance(us)", "nc-delay range(us)", "normalized FCT gap")
		for _, pt := range Fig13(DefaultFig13Config(), o) {
			tb.AddRow(pt.ToleranceUS, pt.RangeUS, pt.GapPerFlow)
		}
		tb.Render(w)
		return nil
	})

	reg("fig14", "per-priority FCT breakdown (12 priorities)", func(p RunParams, o Options, w io.Writer) error {
		base := flowSchedAt(p, o, 12)
		base.Load = 0.5
		rows := Fig14(base, []Scheme{PrioPlusSwift(), SwiftPhysicalIdeal(), D2TCP(), NoCCPhysicalIdeal()})
		tb := stats.NewTable("scheme", "priority band", "size class", "FCT / Physical*")
		for _, r := range rows {
			tb.AddRow(r.Scheme, r.Band, r.Class, r.Norm)
		}
		tb.Render(w)
		return nil
	})

	reg("fig15", "tail CCT speedup", func(p RunParams, o Options, w io.Writer) error {
		fmt.Fprintln(w, "tail (p99) CCT speedup vs Swift baseline, load 70%")
		printCoflow(w, Fig12Coflow(coflowAt(p, o, 0.7), true))
		return nil
	})

	reg("fig16", "HPCC and PrioPlus* comparison", func(p RunParams, o Options, w io.Writer) error {
		printFig11(w, Fig16(8, flowSchedAt(p, o, 8)))
		return nil
	})

	reg("fig17", "lossy fabric (IRN) coflow speedup", func(p RunParams, o Options, w io.Writer) error {
		cfg := coflowAt(p, o, 0.7)
		cfg.Lossy = true
		fmt.Fprintln(w, "coflow CCT speedup, lossy fabric (PFC off, IRN recovery), load 70%")
		printCoflow(w, Fig12Coflow(cfg, false))
		return nil
	})

	reg("fig18", "coflow speedup with HPCC / no-CC baselines", func(p RunParams, o Options, w io.Writer) error {
		cfg := coflowAt(p, o, 0.7)
		// The "Physical* w/o CC" run is armed with an in-flight-bytes
		// watchdog: uncapped it materializes tens of GB of packets in
		// PFC-paused queues and never finishes (see CoflowConfig.MaxInflight).
		// Healthy schemes peak around 21 MB in flight at this scale, so the
		// ceiling only ever cuts the uncontrolled baseline.
		cfg.MaxInflight = 128 << 20
		if p.Full {
			cfg.MaxInflight = 1 << 30
		}
		fmt.Fprintln(w, "coflow CCT speedup with HPCC and Physical w/o CC, load 70%")
		printCoflow(w, Fig12Coflow(cfg, false, HPCCPhysical(8), NoCCPhysicalIdeal()))
		return nil
	})

	reg("tab2", "start-strategy comparison", func(p RunParams, o Options, w io.Writer) error {
		tb := stats.NewTable("strategy", "bytes delayed (analytic)", "max extra buffer (analytic)", "measured extra buffer (BDP)")
		for _, r := range Table2(o) {
			tb.AddRow(r.Strategy, r.BytesDelayed, r.MaxExtraBuffer, r.SimExtraBDP)
		}
		tb.Render(w)
		return nil
	})

	reg("appd", "Swift fluctuation bound check", func(p RunParams, o Options, w io.Writer) error {
		ns := []int{10, 40, 150}
		if !p.Full {
			ns = []int{10, 40}
		}
		tb := stats.NewTable("flows", "measured fluctuation (us)", "bound (us)", "within bound")
		for _, r := range AppD(ns) {
			tb.AddRow(r.N, r.MeasuredUS, r.BoundUS, r.WithinBound)
		}
		tb.Render(w)
		return nil
	})

	reg("ablation", "design-choice ablations (filter, cardinality, probe)", func(p RunParams, o Options, w io.Writer) error {
		fmt.Fprintln(w, "== filter (two-consecutive) vs none, 2x noise ==")
		tb := stats.NewTable("consec limit", "spurious yields", "utilization")
		for _, r := range AblationFilter() {
			tb.AddRow(r.ConsecLimit, r.Yields, r.Util)
		}
		tb.Render(w)
		fmt.Fprintln(w, "\n== flow-cardinality estimation on/off, 40-flow incast ==")
		tb = stats.NewTable("estimation", "frac above D_limit")
		for _, r := range AblationCardinality(40) {
			tb.AddRow(r.Estimation, r.OverLimitFrac)
		}
		tb.Render(w)
		fmt.Fprintln(w, "\n== probe schedule: collision avoidance vs naive per-RTT ==")
		tb = stats.NewTable("schedule", "probe load (Gb/s)", "reclaim (us)")
		for _, r := range AblationProbe() {
			tb.AddRow(r.Scheme, r.ProbeGbps, r.ReclaimUS)
		}
		tb.Render(w)
		return nil
	})

	reg("ext-ecn", "Appendix B extension: per-priority ECN marking", func(p RunParams, o Options, w io.Writer) error {
		r := ECNPrio()
		fmt.Fprintln(w, "Appendix B extension: per-virtual-priority ECN thresholds, DCTCP flows in one queue")
		fmt.Fprintf(w, "  high-vprio share %.2f, utilization %.2f\n", r.HighShare, r.Util)
		return nil
	})

	reg("ext-weighted", "§7 extension: weighted virtual priority", func(p RunParams, o Options, w io.Writer) error {
		r := WeightedVP()
		fmt.Fprintln(w, "§7 extension: weighted sharing within one channel, strict across channels")
		fmt.Fprintf(w, "  weight-4 : weight-1 share ratio %.2f (ideal 4)\n", r.ShareRatio)
		fmt.Fprintf(w, "  higher-channel flow share while active %.2f (strictness preserved)\n", r.HighStrict)
		return nil
	})

	reg("faultsweep", "mid-transfer link flap on a fat-tree: recovery per scheme", func(p RunParams, o Options, w io.Writer) error {
		cfg := DefaultFaultSweepConfig()
		cfg.Options = scenarioOptions(p, o)
		rows := FaultSweep(cfg)
		fmt.Fprintf(w, "mid-transfer link flap (down %v at %v), fat-tree k=%d, %d cross-pod flows\n",
			cfg.FlapDur, cfg.FlapAt, cfg.K, cfg.K*cfg.K*cfg.K/4)
		tb := stats.NewTable("scheme", "done", "stuck", "mean-slow", "p99-slow",
			"retx", "rtos", "fault-drops", "no-route", "peak-q-kb", "yields")
		stuck := 0
		for _, r := range rows {
			tb.AddRow(r.Scheme, fmt.Sprintf("%d/%d", r.Completed, r.Launched), r.Stuck,
				r.MeanSlowdown, r.P99Slowdown, r.Retransmits, r.RTOs,
				r.FaultDrops, r.NoRouteDrops, r.PeakQueueKB, r.Yields)
			stuck += r.Stuck
		}
		tb.Render(w)
		if stuck == 0 {
			fmt.Fprintln(w, "all flows completed: every scheme recovered from the flap")
		} else {
			fmt.Fprintf(w, "WARNING: %d flows stuck at horizon\n", stuck)
		}
		return nil
	})
}

// printSeries prints inline time-series data when the caller asked for it.
func printSeries(w io.Writer, enabled bool, series []Series) {
	if !enabled {
		return
	}
	for _, s := range series {
		fmt.Fprintf(w, "# %s\n", s.Label)
		for i := range s.T {
			fmt.Fprintf(w, "%.3f %.2f\n", s.T[i], s.V[i])
		}
	}
}

// printFig11 renders a Fig11/Fig16 row set as the FCT-slowdown table.
func printFig11(w io.Writer, rows []Fig11Row) {
	tb := stats.NewTable("scheme", "prios", "avg", "p99", "avg-small", "p99-small", "avg-mid", "p99-mid", "avg-large", "p99-large")
	for _, r := range rows {
		tb.AddRow(r.Scheme, r.NPrios, r.AvgAll, r.P99All, r.AvgSmall, r.P99Small, r.AvgMid, r.P99Mid, r.AvgLarge, r.P99Large)
	}
	fmt.Fprintln(w, "FCT slowdown (x ideal) by scheme and priority count")
	tb.Render(w)
}

// printCoflow renders coflow speedup rows, with watchdog annotations for
// runs the in-flight ceiling stopped early.
func printCoflow(w io.Writer, rows []CoflowSpeedups) {
	tb := stats.NewTable("scheme", "high-4 groups", "low-4 groups", "overall")
	for _, r := range rows {
		name := r.Scheme
		if r.Watchdog != "" {
			name += " [watchdog: " + r.Watchdog + "]"
		}
		tb.AddRow(name, r.High4, r.Low4, r.Overall)
	}
	tb.Render(w)
	for _, r := range rows {
		if r.Watchdog != "" {
			fmt.Fprintf(w, "note: %s tripped the %s watchdog and was stopped early;\n"+
				"      its speedups cover only the coflows that finished before the stop\n",
				r.Scheme, r.Watchdog)
		}
	}
}
