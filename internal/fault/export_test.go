package fault

import "prioplus/internal/sim"

// Reboot schedules an instantaneous restart of the named switch: all
// queues drained into the pool, all PFC state cleared.
func (p *Plan) Reboot(at sim.Time, dev string) *Plan {
	p.events = append(p.events, planEvent{at: at, kind: rebootSwitch, link: LinkRef{Dev: dev}})
	return p
}

// Impair sets random loss and corruption rates on both directions of a
// cable for the whole run. Each direction draws from its own RNG stream
// derived from the plan seed and the receiving port's identity.
func (p *Plan) Impair(l LinkRef, lossRate, corruptRate float64) *Plan {
	p.impairments = append(p.impairments, impairment{link: l, loss: lossRate, corrupt: corruptRate})
	return p
}
