package exp

import (
	"testing"

	"prioplus/internal/sim"
	"prioplus/internal/stats"
)

func TestFig3aD2TCPNotStrict(t *testing.T) {
	t.Parallel()
	r := Fig3a(8<<20, Options{})
	// D2TCP favors the tight-deadline flow but does not give it the link.
	if r.HighShare < 0.5 || r.HighShare > 0.95 {
		t.Errorf("D2TCP high share = %.2f, want weighted (0.5..0.95)", r.HighShare)
	}
	// Strict priority would finish at ~1x ideal; D2TCP cannot.
	if r.HighFCTvsIdeal < 1.15 {
		t.Errorf("D2TCP tight-deadline FCT = %.2fx ideal; unexpectedly strict", r.HighFCTvsIdeal)
	}
}

func TestFig3bSwiftScalingWeighted(t *testing.T) {
	t.Parallel()
	r := Fig3b(Options{})
	if r.HighShare < 0.5 || r.HighShare > 0.95 {
		t.Errorf("Swift+scaling high share = %.2f, want weighted sharing (violating O1), not strict", r.HighShare)
	}
}

func TestFig3cSwiftNoScalingFluctuates(t *testing.T) {
	t.Parallel()
	r := Fig3c(100, Options{})
	// With many flows and no scaling, fluctuations cross the high flow's
	// target, so the high flow cannot take the whole link (O1 violation).
	if r.HighShareAfter > 0.9 {
		t.Errorf("high flow share = %.2f; expected fluctuation to suppress it", r.HighShareAfter)
	}
	if r.OverLimitFrac < 0.05 {
		t.Errorf("delay over high target in %.0f%% of samples; expected frequent excursions", r.OverLimitFrac*100)
	}
}

func TestFig3dTradeoffs(t *testing.T) {
	t.Parallel()
	r := Fig3d(Options{})
	// Line-rate start of the low pair creates a large queue transient.
	if r.ExtraQueueOnStart < 50_000 {
		t.Errorf("line-rate start added only %d B of queue; expected a large transient", r.ExtraQueueOnStart)
	}
	// After the high flows stop, the low pair needs noticeable time to
	// reclaim (min-rate ACK clock).
	if r.ReclaimDelay < 50*sim.Microsecond {
		t.Errorf("reclaim delay = %v; expected a visible stall", r.ReclaimDelay)
	}
}

func TestFig8PrioPlusBeatsMultiTargetSwift(t *testing.T) {
	t.Parallel()
	pp := Fig8(true, 2*sim.Millisecond, Options{})
	sw := Fig8(false, 2*sim.Millisecond, Options{})
	if pp.DominanceFrac < 0.75 {
		t.Errorf("PrioPlus dominance = %.2f, want > 0.75", pp.DominanceFrac)
	}
	if pp.DominanceFrac <= sw.DominanceFrac {
		t.Errorf("PrioPlus dominance %.2f <= Swift multi-target %.2f", pp.DominanceFrac, sw.DominanceFrac)
	}
}

func TestFig9CardinalityEstimationContainsDelay(t *testing.T) {
	t.Parallel()
	pp := Fig9(true, Options{})
	sw := Fig9(false, Options{})
	if pp.OverLimitFrac >= sw.OverLimitFrac {
		t.Errorf("PrioPlus over-limit %.2f >= Swift %.2f; estimation should help", pp.OverLimitFrac, sw.OverLimitFrac)
	}
	if pp.OverLimitFrac > 0.25 {
		t.Errorf("PrioPlus delay above limit %.0f%% of the time, want mostly contained", pp.OverLimitFrac*100)
	}
	if sw.OverLimitFrac < 0.08 {
		t.Errorf("Swift with inflated AI only %.0f%% over limit; the contrast scenario is too easy", sw.OverLimitFrac*100)
	}
}

func TestFig10bIncastContained(t *testing.T) {
	t.Parallel()
	r := Fig10b(60, Options{})
	if r.WithinFrac < 0.7 {
		t.Errorf("delay within channel %.0f%% of samples, want mostly contained", r.WithinFrac*100)
	}
	if r.MeanDelay > r.Target+6*sim.Microsecond {
		t.Errorf("mean delay %v far above target %v", r.MeanDelay, r.Target)
	}
}

func TestFig10cDualRTTAvoidsOverreaction(t *testing.T) {
	t.Parallel()
	r := Fig10c(Options{})
	if r.DualRTT.TakeoverTime == 0 {
		t.Fatal("dual-RTT never took over the link")
	}
	if r.EveryRTT.RateVar <= r.DualRTT.RateVar {
		t.Errorf("every-RTT variance %.1f <= dual-RTT %.1f; expected overreaction without the dual-RTT gate",
			r.EveryRTT.RateVar, r.DualRTT.RateVar)
	}
}

func TestFig10dWiderChannelToleratesMoreNoise(t *testing.T) {
	t.Parallel()
	pts := Fig10d(Fig10dConfig{Scales: []float64{1, 6}, WidthsUS: []float64{1, 12}}, Options{})
	util := func(scale, width float64) float64 {
		for _, p := range pts {
			if p.NoiseScale == scale && p.WidthUS == width {
				return p.Util
			}
		}
		t.Fatalf("missing point %v/%v", scale, width)
		return 0
	}
	// Small noise, any width: high utilization. Large noise needs the
	// wide channel.
	if u := util(1, 12); u < 0.9 {
		t.Errorf("scale 1 width 12us: util %.2f, want > 0.9", u)
	}
	if narrow, wide := util(6, 1), util(6, 12); wide <= narrow {
		t.Errorf("scale 6: widening channel did not help (%.2f -> %.2f)", narrow, wide)
	}
}

func TestTable2StartStrategies(t *testing.T) {
	t.Parallel()
	rows := Table2(Options{})
	var line, exp8, lin float64
	for _, r := range rows {
		switch r.Strategy {
		case "line-rate":
			line = r.SimExtraBDP
		case "exponential":
			exp8 = r.SimExtraBDP
		case "linear":
			lin = r.SimExtraBDP
		}
	}
	if !(lin < exp8 && exp8 < line) {
		t.Errorf("extra buffer order wrong: linear %.2f, exponential %.2f, line-rate %.2f", lin, exp8, line)
	}
	// Theorem 4.1 / Table 2: linear start's extra buffer ~1/(2n) BDP vs
	// ~1 BDP for line-rate (n=8 here).
	if lin > 0.35 {
		t.Errorf("linear-start extra buffer %.2f BDP, want ~1/8", lin)
	}
	if line < 0.5 {
		t.Errorf("line-rate extra buffer %.2f BDP, want ~1", line)
	}
}

func TestAppDFluctuationBound(t *testing.T) {
	t.Parallel()
	for _, r := range AppD([]int{10, 40}) {
		if !r.WithinBound {
			t.Errorf("n=%d: measured fluctuation %.2fus exceeds bound %.2fus", r.N, r.MeasuredUS, r.BoundUS)
		}
		if r.MeasuredUS == 0 {
			t.Errorf("n=%d: zero measured fluctuation; measurement broken", r.N)
		}
	}
}

func TestFig2Ratios(t *testing.T) {
	t.Parallel()
	rows := Fig2(Options{})
	// The paper's point: ratios decline across generations; Trident2 at
	// ~9.4, Tomahawk4 at ~4.4.
	var t2, t4 float64
	for _, r := range rows {
		switch r.Chip {
		case "Trident2":
			t2 = r.RatioMBpT
		case "Tomahawk4":
			t4 = r.RatioMBpT
		}
	}
	if t2 < 9 || t2 > 10 {
		t.Errorf("Trident2 ratio %.1f, want ~9.4", t2)
	}
	if t4 < 4 || t4 > 5 {
		t.Errorf("Tomahawk4 ratio %.1f, want ~4.4", t4)
	}
	if t4 >= t2/2+0.3 {
		t.Errorf("Tomahawk4 ratio should be about half of Trident2 (%v vs %v)", t4, t2)
	}
}

func TestFig7NoiseCDF(t *testing.T) {
	t.Parallel()
	cdf, st := Fig7(Fig7Config{Samples: 50_000}, Options{})
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	if st.Mean < 200*sim.Nanosecond || st.Mean > 400*sim.Nanosecond {
		t.Errorf("noise mean %v, want ~0.3us", st.Mean)
	}
}

func TestFig13ToleranceAbsorbsNCDelay(t *testing.T) {
	t.Parallel()
	pts := Fig13(Fig13Config{TolerancesUS: []float64{10}, RangesUS: []float64{0, 6, 40}}, Options{})
	gap := func(rng float64) float64 {
		for _, p := range pts {
			if p.RangeUS == rng {
				return p.GapPerFlow
			}
		}
		t.Fatalf("missing range %v", rng)
		return 0
	}
	// Within tolerance: small gap. Far beyond tolerance: clearly larger.
	if g := gap(6); g > 0.4 {
		t.Errorf("gap at range 6us (tolerance 10us) = %.2f, want small", g)
	}
	if g0, g40 := gap(6), gap(40); g40 <= g0 {
		t.Errorf("gap did not grow beyond tolerance: %.2f -> %.2f", g0, g40)
	}
}

func shortFlowSched(s Scheme, nprios int) FlowSchedConfig {
	cfg := DefaultFlowSchedConfig(s, nprios)
	cfg.K = 4
	cfg.Duration = 5 * sim.Millisecond
	cfg.Drain = 15 * sim.Millisecond
	return cfg
}

func TestFig11ShapeSmall(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("flow-scheduling run in -short mode")
	}
	phys := RunFlowSched(shortFlowSched(SwiftPhysicalIdeal(), 8))
	pp := RunFlowSched(shortFlowSched(PrioPlusSwift(), 8))
	if phys.Flows.Count() < 100 || pp.Flows.Count() < 100 {
		t.Fatalf("too few flows completed: phys %d, pp %d", phys.Flows.Count(), pp.Flows.Count())
	}
	pr, qr := rowFrom(phys), rowFrom(pp)
	// Headline: PrioPlus's large (low-priority) flows beat Physical*'s
	// because of linear-start reclamation (paper: 25-41% better).
	if qr.AvgLarge >= pr.AvgLarge*1.05 {
		t.Errorf("PrioPlus large-flow slowdown %.2f not better than Physical* %.2f", qr.AvgLarge, pr.AvgLarge)
	}
	// High-priority flows degrade at most modestly: the paper's claim is
	// on the combined small+middle average FCT (<= 9% worse; allow slack
	// at this reduced scale).
	combined := func(r Fig11Row, nS, nM int) float64 {
		return (r.AvgSmall*float64(nS) + r.AvgMid*float64(nM)) / float64(nS+nM)
	}
	nS := phys.Flows.ByClass(stats.Small).Count()
	nM := phys.Flows.ByClass(stats.Middle).Count()
	pc, qc := combined(pr, nS, nM), combined(qr, nS, nM)
	if qc > pc*1.25 {
		t.Errorf("PrioPlus small+middle slowdown %.2f vs Physical* %.2f; degradation too large", qc, pc)
	}
	// All launched flows must complete: virtual priority is work
	// conserving (O2).
	if pp.Unfinished > 0 {
		t.Errorf("%d PrioPlus flows unfinished", pp.Unfinished)
	}
}

func TestFig12CoflowShapeSmall(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("coflow run in -short mode")
	}
	cfg := DefaultCoflowConfig(PrioPlusSwift(), 0.4)
	cfg.Duration = 8 * sim.Millisecond
	cfg.Drain = 40 * sim.Millisecond
	rows := Fig12Coflow(cfg, false)
	var phys, pp CoflowSpeedups
	for _, r := range rows {
		switch r.Scheme {
		case "Physical+Swift":
			phys = r
		case "PrioPlus+Swift":
			pp = r
		}
	}
	if pp.Overall <= 0 || phys.Overall <= 0 {
		t.Fatalf("missing speedups: %+v", rows)
	}
	// Both scheduling schemes should beat the no-priority baseline, and
	// PrioPlus should be at least comparable to physical priority.
	if pp.Overall < 1.0 {
		t.Errorf("PrioPlus overall speedup %.2f < 1 (worse than no scheduling)", pp.Overall)
	}
	if pp.Overall < phys.Overall*0.9 {
		t.Errorf("PrioPlus speedup %.2f well below physical %.2f", pp.Overall, phys.Overall)
	}
}

func TestFig12MLShapeSmall(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("ML run in -short mode")
	}
	cfg := DefaultMLConfig(PrioPlusSwift())
	cfg.Duration = 60 * sim.Millisecond // enough iterations for the coarse contrast below
	rows := Fig12ML(cfg)
	var phys, pp MLSpeedups
	for _, r := range rows {
		switch r.Scheme {
		case "Physical+Swift":
			phys = r
		case "PrioPlus+Swift":
			pp = r
		}
	}
	if pp.Overall == 0 || phys.Overall == 0 {
		t.Fatalf("missing results: %+v", rows)
	}
	// The paper's Fig 12c contrast: physical priority speeds ResNet but
	// collapses VGG (-18% in the paper); PrioPlus keeps VGG near parity
	// and wins overall.
	if pp.VGG < 0.7 {
		t.Errorf("PrioPlus VGG speedup %.2f; interleaving should not starve VGG", pp.VGG)
	}
	if pp.VGG <= phys.VGG+0.1 {
		t.Errorf("PrioPlus VGG %.2f not clearly above Physical VGG %.2f; PrioPlus should avoid the starvation", pp.VGG, phys.VGG)
	}
	if pp.Overall <= phys.Overall {
		t.Errorf("PrioPlus overall %.2f <= Physical %.2f", pp.Overall, phys.Overall)
	}
	if pp.Overall < 0.9 {
		t.Errorf("PrioPlus overall speedup %.2f, want >= ~baseline", pp.Overall)
	}
}
