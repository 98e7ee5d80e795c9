// Package prioplus_bench regenerates every table and figure of the paper
// as a testing.B benchmark. Each benchmark runs a reduced-scale version of
// the experiment (the CLI's -full flag runs paper scale) and reports the
// figure's headline quantity as a custom metric, so `go test -bench=.`
// doubles as a reproduction harness: the reported metrics should match the
// paper's *shape* — who wins, by roughly what factor, where crossovers
// fall. EXPERIMENTS.md records paper-vs-measured for each one.
package prioplus_bench

import (
	"io"
	"testing"

	"prioplus/internal/exp"
	"prioplus/internal/obs"
	"prioplus/internal/sim"
)

// BenchmarkFig2ChipRatios regenerates the buffer/bandwidth ratio table.
func BenchmarkFig2ChipRatios(b *testing.B) {
	var t2, t4 float64
	for i := 0; i < b.N; i++ {
		for _, r := range exp.Fig2(exp.Options{}) {
			switch r.Chip {
			case "Trident2":
				t2 = r.RatioMBpT
			case "Tomahawk4":
				t4 = r.RatioMBpT
			}
		}
	}
	b.ReportMetric(t2, "Trident2_MB/Tbps")
	b.ReportMetric(t4, "Tomahawk4_MB/Tbps")
}

// BenchmarkFig3aD2TCP: D2TCP cannot give the tight-deadline flow strict
// priority (share ~0.6-0.8, not ~1.0).
func BenchmarkFig3aD2TCP(b *testing.B) {
	var r exp.Fig3aResult
	for i := 0; i < b.N; i++ {
		r = exp.Fig3a(8<<20, exp.Options{})
	}
	b.ReportMetric(r.HighShare, "high_share")
	b.ReportMetric(r.HighFCTvsIdeal, "high_fct_vs_ideal")
}

// BenchmarkFig3bSwiftScaling: Swift with target scaling converges to
// weighted, not strict, sharing.
func BenchmarkFig3bSwiftScaling(b *testing.B) {
	var r exp.Fig3bResult
	for i := 0; i < b.N; i++ {
		r = exp.Fig3b(exp.Options{})
	}
	b.ReportMetric(r.HighShare, "high_share")
}

// BenchmarkFig3cSwiftNoScaling: without scaling, many-flow fluctuations
// cross the high flow's threshold (O1+O2 violations).
func BenchmarkFig3cSwiftNoScaling(b *testing.B) {
	var r exp.Fig3cResult
	for i := 0; i < b.N; i++ {
		r = exp.Fig3c(100, exp.Options{})
	}
	b.ReportMetric(r.UtilBefore, "util_before")
	b.ReportMetric(r.OverLimitFrac, "over_limit_frac")
	b.ReportMetric(r.HighShareAfter, "high_share_after")
}

// BenchmarkFig3dTradeoffs: line-rate start buffer cost and min-rate
// reclaim stall.
func BenchmarkFig3dTradeoffs(b *testing.B) {
	var r exp.Fig3dResult
	for i := 0; i < b.N; i++ {
		r = exp.Fig3d(exp.Options{})
	}
	b.ReportMetric(float64(r.ExtraQueueOnStart)/1000, "start_extra_queue_KB")
	b.ReportMetric(r.ReclaimDelay.Millis(), "reclaim_ms")
}

// BenchmarkFig7NoiseCDF: the delay-noise model's summary statistics.
func BenchmarkFig7NoiseCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, st := exp.Fig7(exp.Fig7Config{Samples: 100_000}, exp.Options{})
		b.ReportMetric(st.Mean.Micros(), "mean_us")
		b.ReportMetric(st.P9985.Micros(), "p9985_us")
		b.ReportMetric(st.FracGt1*100, "pct_gt_1us")
	}
}

// BenchmarkFig8Testbed: the 4-priority staggered ladder; PrioPlus's
// dominance of the newest priority vs multi-target Swift's.
func BenchmarkFig8Testbed(b *testing.B) {
	var pp, sw exp.Fig8Result
	for i := 0; i < b.N; i++ {
		pp = exp.Fig8(true, 2*sim.Millisecond, exp.Options{})
		sw = exp.Fig8(false, 2*sim.Millisecond, exp.Options{})
	}
	b.ReportMetric(pp.DominanceFrac, "prioplus_dominance")
	b.ReportMetric(sw.DominanceFrac, "swift_dominance")
}

// BenchmarkFig9Fluctuation: delay containment with inflated AI steps.
func BenchmarkFig9Fluctuation(b *testing.B) {
	var pp, sw exp.Fig9Result
	for i := 0; i < b.N; i++ {
		pp = exp.Fig9(true, exp.Options{})
		sw = exp.Fig9(false, exp.Options{})
	}
	b.ReportMetric(pp.OverLimitFrac, "prioplus_over_limit")
	b.ReportMetric(sw.OverLimitFrac, "swift_over_limit")
}

// BenchmarkFig10aEightPrio: share held by each newly started priority in
// its own interval (all should be ~1).
func BenchmarkFig10aEightPrio(b *testing.B) {
	var shares []float64
	for i := 0; i < b.N; i++ {
		shares = exp.Fig10a(3, 3*sim.Millisecond, exp.Options{})
	}
	minShare := 1.0
	for _, s := range shares[1:] {
		if s < minShare {
			minShare = s
		}
	}
	b.ReportMetric(minShare, "min_interval_share")
}

// BenchmarkFig10bIncast: delay containment under synchronized incast.
func BenchmarkFig10bIncast(b *testing.B) {
	var r exp.Fig10bResult
	for i := 0; i < b.N; i++ {
		r = exp.Fig10b(80, exp.Options{})
	}
	b.ReportMetric(r.WithinFrac, "within_channel_frac")
	b.ReportMetric(r.MeanDelay.Micros(), "mean_delay_us")
}

// instrumented is the Options of a one-run driver recorded by rec.
func instrumented(rec *obs.Recorder) exp.Options {
	return exp.Options{NewRecorder: func(string) *obs.Recorder { return rec }}
}

// BenchmarkFig10bIncastObs: the same incast with the full telemetry stack
// enabled — 10us series sampling over the standard source catalogue plus
// latency histograms. The acceptance bar is < 10% over BenchmarkFig10bIncast.
func BenchmarkFig10bIncastObs(b *testing.B) {
	var r exp.Fig10bResult
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		rec.Series = obs.NewSeriesSet(10 * sim.Microsecond)
		rec.Hist = obs.NewHistSet()
		r = exp.Fig10b(80, instrumented(rec))
		if rec.Series.Ticks() == 0 {
			b.Fatal("sampler never fired")
		}
	}
	b.ReportMetric(r.WithinFrac, "within_channel_frac")
	b.ReportMetric(r.MeanDelay.Micros(), "mean_delay_us")
}

// BenchmarkFig10bIncastFullObs: the same incast with everything on —
// series, histograms, per-event-kind cost attribution, host runtime
// gauges, and the live-progress bridge. This is the `-series -hist -cost
// -runtime -listen` configuration; the acceptance bar is < 10% over
// BenchmarkFig10bIncast.
func BenchmarkFig10bIncastFullObs(b *testing.B) {
	var r exp.Fig10bResult
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		rec.Series = obs.NewSeriesSet(10 * sim.Microsecond)
		rec.Hist = obs.NewHistSet()
		rec.Cost = &obs.CostProfiler{}
		rec.Runtime = &obs.RuntimeSampler{}
		rec.Live = &obs.LiveRun{}
		r = exp.Fig10b(80, instrumented(rec))
		if rec.Series.Ticks() == 0 {
			b.Fatal("sampler never fired")
		}
		if rec.Cost.TotalNanos() == 0 {
			b.Fatal("cost profiler recorded nothing")
		}
		if rec.Live.Events.Load() == 0 {
			b.Fatal("live bridge never updated")
		}
	}
	b.ReportMetric(r.WithinFrac, "within_channel_frac")
	b.ReportMetric(r.MeanDelay.Micros(), "mean_delay_us")
}

// BenchmarkFig10bIncastFingerprint: the same incast with the digest chain
// folding every dispatched event (the `-fingerprint` configuration). The
// acceptance bar is <= 2% over BenchmarkFig10bIncast — one XOR-multiply
// fold per event plus the receiving ports' payload folds.
func BenchmarkFig10bIncastFingerprint(b *testing.B) {
	var r exp.Fig10bResult
	var dig *sim.Digest
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		dig = sim.NewDigest()
		rec.Digest = dig
		r = exp.Fig10b(80, instrumented(rec))
		if dig.Count == 0 {
			b.Fatal("digest folded nothing")
		}
	}
	b.ReportMetric(r.WithinFrac, "within_channel_frac")
	b.ReportMetric(float64(dig.Count), "events_folded")
}

// BenchmarkFig10bIncastTrace: the same incast with causal flow tracing on
// for four sampled flows — packet journeys at the default stride plus the
// full CC decision audit. The acceptance bar is < 10% over
// BenchmarkFig10bIncast; unsampled flows ride the zero-alloc path.
func BenchmarkFig10bIncastTrace(b *testing.B) {
	var r exp.Fig10bResult
	var spans int
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		rec.FlowTrace = obs.NewFlowTracer(4)
		r = exp.Fig10b(80, instrumented(rec))
		spans = 0
		for _, fl := range rec.FlowTrace.Logs() {
			spans += fl.Len()
		}
		if spans == 0 {
			b.Fatal("flow tracer recorded nothing")
		}
	}
	b.ReportMetric(r.WithinFrac, "within_channel_frac")
	b.ReportMetric(r.MeanDelay.Micros(), "mean_delay_us")
	b.ReportMetric(float64(spans), "trace_spans")
}

// BenchmarkFig10bIncastAllHooks: the same incast the way the repository
// benchmark's obs_full workload runs it — `-series -hist -cost -fingerprint
// -audit -trace-flows 4` — including the artifact encode (to io.Discard).
// Series, histograms, cost attribution, the digest chain, the conservation
// auditor with its flight ring on every port, four traced flows, then
// WriteArtifact. CI prints this over BenchmarkFig10bIncast and gates the
// ratio; CHANGES.md, PR 14, says where it came from.
func BenchmarkFig10bIncastAllHooks(b *testing.B) {
	var r exp.Fig10bResult
	var spans int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		rec.Series = obs.NewSeriesSet(obs.DefaultSeriesInterval)
		rec.Hist = obs.NewHistSet()
		rec.Cost = &obs.CostProfiler{}
		rec.Digest = sim.NewDigest()
		rec.Audit = &obs.Auditor{}
		rec.Flight = obs.NewFlightRecorder(4096)
		rec.FlowTrace = obs.NewFlowTracer(4)
		r = exp.Fig10b(80, instrumented(rec))
		if rec.Audit.Checks == 0 || rec.Audit.Violation() != "" {
			b.Fatalf("auditor: %d checks, violation %q", rec.Audit.Checks, rec.Audit.Violation())
		}
		if rec.Flight.Total() == 0 || rec.Digest.Count == 0 {
			b.Fatal("flight ring or digest saw nothing")
		}
		spans = 0
		for _, fl := range rec.FlowTrace.Logs() {
			spans += fl.Len()
		}
		if err := obs.WriteArtifact(io.Discard, "incast", rec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.WithinFrac, "within_channel_frac")
	b.ReportMetric(float64(spans), "trace_spans")
}

// BenchmarkFig10cDualRTT: dual-RTT vs every-RTT adaptive increase.
func BenchmarkFig10cDualRTT(b *testing.B) {
	var r exp.Fig10cResult
	for i := 0; i < b.N; i++ {
		r = exp.Fig10c(exp.Options{})
	}
	b.ReportMetric(r.DualRTT.RateVar, "dualrtt_rate_var")
	b.ReportMetric(r.EveryRTT.RateVar, "everyrtt_rate_var")
	b.ReportMetric(r.DualRTT.TakeoverTime.Millis(), "takeover_ms")
}

// BenchmarkFig10dNoise: utilization for narrow vs wide channels under
// scaled noise; the width needed grows with the noise.
func BenchmarkFig10dNoise(b *testing.B) {
	var pts []exp.Fig10dPoint
	for i := 0; i < b.N; i++ {
		pts = exp.Fig10d(exp.Fig10dConfig{Scales: []float64{1, 4}, WidthsUS: []float64{1, 8}}, exp.Options{})
	}
	for _, p := range pts {
		if p.NoiseScale == 4 && p.WidthUS == 1 {
			b.ReportMetric(p.Util, "util_scale4_width1")
		}
		if p.NoiseScale == 4 && p.WidthUS == 8 {
			b.ReportMetric(p.Util, "util_scale4_width8")
		}
	}
}

// BenchmarkFig11FlowSched: the flow-scheduling scenario at 8 priorities;
// the headline is PrioPlus's large-flow advantage with small+middle parity.
func BenchmarkFig11FlowSched(b *testing.B) {
	var phys, pp exp.FlowSchedResult
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultFlowSchedConfig(exp.SwiftPhysicalIdeal(), 8)
		cfg.K = 4
		cfg.Duration = 4 * sim.Millisecond
		cfg.Drain = 12 * sim.Millisecond
		phys = exp.RunFlowSched(cfg)
		cfg.Scheme = exp.PrioPlusSwift()
		pp = exp.RunFlowSched(cfg)
	}
	b.ReportMetric(phys.Flows.MeanSlowdown(), "phys_avg_slowdown")
	b.ReportMetric(pp.Flows.MeanSlowdown(), "pp_avg_slowdown")
	b.ReportMetric(float64(pp.Flows.Count()), "pp_flows_done")
}

// BenchmarkFig12Coflow: coflow CCT speedups vs the no-priority baseline.
func BenchmarkFig12Coflow(b *testing.B) {
	var rows []exp.CoflowSpeedups
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultCoflowConfig(exp.PrioPlusSwift(), 0.4)
		cfg.Duration = 6 * sim.Millisecond
		cfg.Drain = 30 * sim.Millisecond
		rows = exp.Fig12Coflow(cfg, false)
	}
	for _, r := range rows {
		switch r.Scheme {
		case "Physical+Swift":
			b.ReportMetric(r.Overall, "phys_speedup")
		case "PrioPlus+Swift":
			b.ReportMetric(r.Overall, "pp_speedup")
		}
	}
}

// BenchmarkFig12cTraining: ML training speedups from priority interleaving.
func BenchmarkFig12cTraining(b *testing.B) {
	var rows []exp.MLSpeedups
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultMLConfig(exp.PrioPlusSwift())
		cfg.Duration = 40 * sim.Millisecond
		rows = exp.Fig12ML(cfg)
	}
	for _, r := range rows {
		switch r.Scheme {
		case "Physical+Swift":
			b.ReportMetric(r.Overall, "phys_overall")
			b.ReportMetric(r.VGG, "phys_vgg")
		case "PrioPlus+Swift":
			b.ReportMetric(r.Overall, "pp_overall")
			b.ReportMetric(r.VGG, "pp_vgg")
		}
	}
}

// BenchmarkFig13NCDelay: the normalized FCT gap stays flat within the
// tolerance and rises beyond it.
func BenchmarkFig13NCDelay(b *testing.B) {
	var pts []exp.Fig13Point
	for i := 0; i < b.N; i++ {
		pts = exp.Fig13(exp.Fig13Config{TolerancesUS: []float64{10}, RangesUS: []float64{0, 8, 24}}, exp.Options{})
	}
	for _, p := range pts {
		switch p.RangeUS {
		case 0:
			b.ReportMetric(p.GapPerFlow, "gap_range0")
		case 8:
			b.ReportMetric(p.GapPerFlow, "gap_range8_in_tol")
		case 24:
			b.ReportMetric(p.GapPerFlow, "gap_range24_beyond")
		}
	}
}

// BenchmarkFig14PrioBreakdown: per-band FCT normalized by Physical*.
func BenchmarkFig14PrioBreakdown(b *testing.B) {
	var rows []exp.Fig14Row
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultFlowSchedConfig(exp.PrioPlusSwift(), 12)
		cfg.K = 4
		cfg.Load = 0.5
		cfg.Duration = 4 * sim.Millisecond
		cfg.Drain = 16 * sim.Millisecond
		rows = exp.Fig14(cfg, []exp.Scheme{exp.PrioPlusSwift()})
	}
	for _, r := range rows {
		if r.Class == "small" {
			switch r.Band {
			case "high":
				b.ReportMetric(r.Norm, "pp_high_small_norm")
			case "low":
				b.ReportMetric(r.Norm, "pp_low_small_norm")
			}
		}
	}
}

// BenchmarkFig15TailCCT: tail (p99) coflow speedups.
func BenchmarkFig15TailCCT(b *testing.B) {
	var rows []exp.CoflowSpeedups
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultCoflowConfig(exp.PrioPlusSwift(), 0.7)
		cfg.Duration = 6 * sim.Millisecond
		cfg.Drain = 30 * sim.Millisecond
		rows = exp.Fig12Coflow(cfg, true)
	}
	for _, r := range rows {
		if r.Scheme == "PrioPlus+Swift" {
			b.ReportMetric(r.Overall, "pp_tail_speedup")
		}
	}
}

// BenchmarkFig16HPCC: PrioPlus vs PrioPlus* (ACKs unprioritized) vs HPCC.
func BenchmarkFig16HPCC(b *testing.B) {
	var rows []exp.Fig11Row
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultFlowSchedConfig(exp.PrioPlusSwift(), 8)
		cfg.K = 4
		cfg.Duration = 4 * sim.Millisecond
		cfg.Drain = 16 * sim.Millisecond
		rows = exp.Fig16(8, cfg)
	}
	for _, r := range rows {
		switch r.Scheme {
		case "PrioPlus+Swift":
			b.ReportMetric(r.AvgAll, "pp_avg_slowdown")
		case "PrioPlus*+Swift":
			b.ReportMetric(r.AvgAll, "ppstar_avg_slowdown")
		case "Physical+HPCC":
			b.ReportMetric(r.AvgAll, "hpcc_avg_slowdown")
		}
	}
}

// BenchmarkFig17Lossy: coflow speedups with PFC off (IRN recovery).
func BenchmarkFig17Lossy(b *testing.B) {
	var rows []exp.CoflowSpeedups
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultCoflowConfig(exp.PrioPlusSwift(), 0.7)
		cfg.Duration = 6 * sim.Millisecond
		cfg.Drain = 30 * sim.Millisecond
		cfg.Lossy = true
		rows = exp.Fig12Coflow(cfg, false)
	}
	for _, r := range rows {
		if r.Scheme == "PrioPlus+Swift" {
			b.ReportMetric(r.Overall, "pp_lossy_speedup")
		}
	}
}

// BenchmarkFig18CoflowBaselines: HPCC in the coflow scenario. The
// Physical-without-CC baseline of Fig 18 is CLI-only (`prioplus-sim
// fig18`): its uncontrolled injection causes minutes of simulated PFC
// churn, far beyond a benchmark's time budget — which is itself the
// figure's point ("extremely poor... because of no control"). The CLI run
// bounds it with the in-flight watchdog (CoflowConfig.MaxInflight), so the
// blowup ends in a stopped, annotated run instead of unbounded memory.
func BenchmarkFig18CoflowBaselines(b *testing.B) {
	var rows []exp.CoflowSpeedups
	for i := 0; i < b.N; i++ {
		cfg := exp.DefaultCoflowConfig(exp.PrioPlusSwift(), 0.7)
		cfg.Duration = 5 * sim.Millisecond
		cfg.Drain = 25 * sim.Millisecond
		rows = exp.Fig12Coflow(cfg, false, exp.HPCCPhysical(8))
	}
	for _, r := range rows {
		switch r.Scheme {
		case "PrioPlus+Swift":
			b.ReportMetric(r.Overall, "pp_speedup")
		case "Physical+HPCC":
			b.ReportMetric(r.Overall, "hpcc_speedup")
		}
	}
}

// BenchmarkTable2StartStrategies: measured extra buffer per start strategy.
func BenchmarkTable2StartStrategies(b *testing.B) {
	var rows []exp.Table2Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table2(exp.Options{})
	}
	for _, r := range rows {
		switch r.Strategy {
		case "line-rate":
			b.ReportMetric(r.SimExtraBDP, "linerate_extra_BDP")
		case "exponential":
			b.ReportMetric(r.SimExtraBDP, "exp_extra_BDP")
		case "linear":
			b.ReportMetric(r.SimExtraBDP, "linear_extra_BDP")
		}
	}
}

// BenchmarkAppDFluctuationBound: measured Swift fluctuation vs the
// Appendix D analytic bound.
func BenchmarkAppDFluctuationBound(b *testing.B) {
	var rows []exp.AppDResult
	for i := 0; i < b.N; i++ {
		rows = exp.AppD([]int{40})
	}
	b.ReportMetric(rows[0].MeasuredUS, "measured_us")
	b.ReportMetric(rows[0].BoundUS, "bound_us")
}

// BenchmarkAblations: the §6.1 design-choice ablations (filter,
// cardinality estimation, probe schedule).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range exp.AblationFilter() {
			if r.ConsecLimit == 1 {
				b.ReportMetric(float64(r.Yields), "nofilter_yields")
			} else {
				b.ReportMetric(float64(r.Yields), "filter_yields")
			}
		}
		for _, r := range exp.AblationCardinality(40) {
			if r.Estimation {
				b.ReportMetric(r.OverLimitFrac, "est_over_limit")
			} else {
				b.ReportMetric(r.OverLimitFrac, "noest_over_limit")
			}
		}
		for _, r := range exp.AblationProbe() {
			if r.Scheme == "naive" {
				b.ReportMetric(r.ProbeGbps, "naive_probe_gbps")
			} else {
				b.ReportMetric(r.ProbeGbps, "ca_probe_gbps")
			}
		}
	}
}

// BenchmarkExtECNPrio: the Appendix B extension (per-virtual-priority ECN
// thresholds in one queue).
func BenchmarkExtECNPrio(b *testing.B) {
	var r exp.ECNPrioResult
	for i := 0; i < b.N; i++ {
		r = exp.ECNPrio()
	}
	b.ReportMetric(r.HighShare, "high_share")
	b.ReportMetric(r.Util, "utilization")
}

// BenchmarkExtWeightedVP: the §7 extension (weighted sharing within a
// channel, strict across channels).
func BenchmarkExtWeightedVP(b *testing.B) {
	var r exp.WeightedVPResult
	for i := 0; i < b.N; i++ {
		r = exp.WeightedVP()
	}
	b.ReportMetric(r.ShareRatio, "w4_w1_share_ratio")
	b.ReportMetric(r.HighStrict, "high_channel_strictness")
}

// BenchmarkFaultSweep: mid-transfer link flap on the fat-tree; every
// scheme must recover every flow (stuck == 0), and PrioPlus must keep
// yielding through the fault.
func BenchmarkFaultSweep(b *testing.B) {
	var rows []exp.FaultSweepRow
	for i := 0; i < b.N; i++ {
		rows = exp.FaultSweep(exp.DefaultFaultSweepConfig())
	}
	var stuck, rtos int64
	for _, r := range rows {
		stuck += int64(r.Stuck)
		rtos += r.RTOs
		if r.Scheme == "PrioPlus+Swift" {
			b.ReportMetric(r.P99Slowdown, "pp_p99_slowdown")
			b.ReportMetric(float64(r.Yields), "pp_yields")
		}
	}
	b.ReportMetric(float64(stuck), "stuck_flows")
	b.ReportMetric(float64(rtos), "total_rtos")
}
