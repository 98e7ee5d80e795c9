package exp

import (
	"testing"

	"prioplus/internal/sim"
)

// TestRDMABaselineSchemes runs the schemes no figure spec constructs
// through the small flow-scheduling scenario: DCQCN and TIMELY (extra
// baselines beyond the paper's set), PrioPlus over LEDBAT (§6.2) and the
// §3.2 multi-target Swift strawman with and without target scaling. They
// must complete the workload with sane slowdowns.
func TestRDMABaselineSchemes(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("flow-scheduling run in -short mode")
	}
	for _, s := range []Scheme{
		DCQCNPhysical(8), TIMELYPhysical(8),
		PrioPlusLEDBAT(), SwiftVirtual(true), SwiftVirtual(false),
	} {
		cfg := DefaultFlowSchedConfig(s, 4)
		cfg.K = 4
		cfg.Duration = 2 * sim.Millisecond
		cfg.Drain = 12 * sim.Millisecond
		r := RunFlowSched(cfg)
		if r.Flows.Count() < r.Launched*9/10 {
			t.Errorf("%s: only %d/%d flows completed", s.Name, r.Flows.Count(), r.Launched)
		}
		if sd := r.Flows.MeanSlowdown(); sd <= 1 || sd > 60 {
			t.Errorf("%s: mean slowdown %.1f out of sane range", s.Name, sd)
		}
	}
}
