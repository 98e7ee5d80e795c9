package exp

import (
	"testing"

	"prioplus/internal/sim"
)

// TestRDMABaselineSchemes runs DCQCN, an extra baseline beyond the paper's
// set that no flow-scheduling figure constructs, through the small
// flow-scheduling scenario. It must complete the workload with sane
// slowdowns.
func TestRDMABaselineSchemes(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("flow-scheduling run in -short mode")
	}
	cfg := defaultFlowSchedConfig(dcqcnPhysical(8), 4)
	cfg.k = 4
	cfg.duration = 2 * sim.Millisecond
	cfg.drain = 12 * sim.Millisecond
	r := runFlowSched(cfg)
	if r.flows.Count() < r.launched*9/10 {
		t.Errorf("only %d/%d flows completed", r.flows.Count(), r.launched)
	}
	if sd := r.flows.MeanSlowdown(); sd <= 1 || sd > 60 {
		t.Errorf("mean slowdown %.1f out of sane range", sd)
	}
}
