package core

import "prioplus/internal/cc"

// Inner returns the wrapped delay-based controller.
func (p *PrioPlus) Inner() cc.DelayBased { return p.inner }

// Stopped reports whether the flow has relinquished bandwidth and is
// probing.
func (p *PrioPlus) Stopped() bool { return p.stopped }
