package obs

// Auditor is the conservation auditor's trip state. The harness installs
// the actual invariant checks (pool-vs-inflight packet accounting, shared-
// buffer byte sums, PFC pause symmetry — it owns the network objects) and
// runs them on the sampler clock and stops the run on the first violation,
// which the auditor records.
//
// Like the Watchdog, checks ride the simulated clock, so a violation trips
// at a deterministic simulated instant regardless of wall clock or worker
// count. A violation means the simulator's books are wrong — a conservation
// bug, not a workload property — so the run stops and the flight recorder
// is dumped for post-mortem.
type Auditor struct {
	// Checks counts audit passes executed (one per sampler tick).
	Checks int64

	violation string
}

// Violate records the first violation. It returns true while the auditor
// is tripped (the first call and all later ones).
func (a *Auditor) Violate(detail string) bool {
	if a.violation != "" {
		return true
	}
	if detail == "" {
		return false
	}
	a.violation = detail
	return true
}

// Violation returns the first recorded violation, or "" while every audit
// pass has been clean.
func (a *Auditor) Violation() string { return a.violation }
