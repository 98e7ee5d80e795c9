package exp

import "testing"

func TestAblationFilter(t *testing.T) {
	t.Parallel()
	rows := []ablationFilterResult{ablationFilter(1, Options{}), ablationFilter(2, Options{})}
	var noFilter, filter ablationFilterResult
	for _, r := range rows {
		if r.consecLimit == 1 {
			noFilter = r
		} else {
			filter = r
		}
	}
	if filter.yields >= noFilter.yields {
		t.Errorf("filter yields %d >= no-filter yields %d; the 2-consecutive filter should absorb noise spikes",
			filter.yields, noFilter.yields)
	}
	if filter.util < 0.85 {
		t.Errorf("utilization with filter %.2f, want high", filter.util)
	}
}

func TestAblationCardinality(t *testing.T) {
	t.Parallel()
	rows := []ablationCardinalityResult{ablationCardinality(40, true, Options{}), ablationCardinality(40, false, Options{})}
	var on, off ablationCardinalityResult
	for _, r := range rows {
		if r.estimation {
			on = r
		} else {
			off = r
		}
	}
	if on.overLimitFrac >= off.overLimitFrac {
		t.Errorf("estimation over-limit %.2f >= without %.2f; estimation should contain the delay",
			on.overLimitFrac, off.overLimitFrac)
	}
	if off.overLimitFrac < 0.2 {
		t.Errorf("without estimation only %.0f%% over limit; the ablation contrast is too weak", off.overLimitFrac*100)
	}
}

func TestAblationProbe(t *testing.T) {
	t.Parallel()
	rows := []ablationProbeResult{ablationProbe(false, Options{}), ablationProbe(true, Options{})}
	var ca, naive ablationProbeResult
	for _, r := range rows {
		if r.scheme == "naive" {
			naive = r
		} else {
			ca = r
		}
	}
	// The schedule policy itself (CA waits out delay - D_target, naive
	// waits one base RTT) is verified by unit tests in internal/core; at
	// the system level the observable claims are that collision
	// avoidance does not cost more probe bandwidth...
	if ca.probeGbps > naive.probeGbps*1.1 {
		t.Errorf("CA probe load %.3f Gb/s above naive %.3f", ca.probeGbps, naive.probeGbps)
	}
	if ca.probeGbps <= 0 || naive.probeGbps <= 0 {
		t.Errorf("no probe traffic measured (ca %.3f, naive %.3f)", ca.probeGbps, naive.probeGbps)
	}
	// ...nor a large penalty in reclaim latency.
	if ca.reclaimUS > naive.reclaimUS*4+400 {
		t.Errorf("CA reclaim %.0fus vs naive %.0fus; detection latency degraded too much",
			ca.reclaimUS, naive.reclaimUS)
	}
}

func TestECNPrioExtension(t *testing.T) {
	t.Parallel()
	r := ecnPrio()
	// Priority-dependent marking turns out to approximate strict
	// priority: the standing queue settles above the low threshold, so
	// low-vprio flows are marked on every round trip and collapse to
	// their minimum rate. (This validates Appendix B's direction — with
	// the caveat that it needs a switch change.)
	if r.highShare < 0.9 {
		t.Errorf("high-vprio share %.2f; per-priority ECN thresholds should strongly prioritize", r.highShare)
	}
	if r.util < 0.85 {
		t.Errorf("utilization %.2f, want high", r.util)
	}
}

func TestWeightedVPExtension(t *testing.T) {
	t.Parallel()
	r := weightedVP()
	if r.shareRatio < 2 || r.shareRatio > 8 {
		t.Errorf("weight-4:weight-1 share ratio %.2f, want ~4", r.shareRatio)
	}
	if r.highStrict < 0.85 {
		t.Errorf("higher channel holds %.2f of the link; weights must not break cross-channel strictness", r.highStrict)
	}
}
