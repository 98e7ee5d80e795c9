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
	cfg := DefaultFlowSchedConfig(DCQCNPhysical(8), 4)
	cfg.K = 4
	cfg.Duration = 2 * sim.Millisecond
	cfg.Drain = 12 * sim.Millisecond
	r := RunFlowSched(cfg)
	if r.Flows.Count() < r.Launched*9/10 {
		t.Errorf("only %d/%d flows completed", r.Flows.Count(), r.Launched)
	}
	if sd := r.Flows.MeanSlowdown(); sd <= 1 || sd > 60 {
		t.Errorf("mean slowdown %.1f out of sane range", sd)
	}
}
