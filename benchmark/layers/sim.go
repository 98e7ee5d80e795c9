//go:build layerbench

package main

import (
	"prioplus/internal/sim"
)

func init() { register("sim", 0, runSim) }

type simObj struct{ n int }

// shallowLoop posts n closure-free events with at most 16 pending, the
// engine's cheapest regime: everything lands in the first wheel level.
func shallowLoop(e *sim.Engine, n int) {
	x, y := &simObj{}, &simObj{}
	fn := func(a, b any) { a.(*simObj).n++ }
	for i := 0; i < n; i++ {
		e.Post2(sim.Time(i%16)*sim.Nanosecond, fn, x, y)
		if e.Pending() >= 16 {
			e.RunUntil(e.Now() + 16*sim.Nanosecond)
		}
	}
	e.Run()
}

// deepDelays spans every wheel level: 100 ns to 10 ms.
var deepDelays = [...]sim.Time{
	100 * sim.Nanosecond, 700 * sim.Nanosecond, 3 * sim.Microsecond, 17 * sim.Microsecond,
	90 * sim.Microsecond, 400 * sim.Microsecond, 2 * sim.Millisecond, 10 * sim.Millisecond,
}

// deepTimer re-arms itself on firing, as a population of RTO and pacing
// timers does, so the wheel holds a constant number of pending events.
type deepTimer struct {
	e     *sim.Engine
	fires *int
	limit int
	i     int
}

func deepFire(a, _ any) {
	t := a.(*deepTimer)
	*t.fires++
	if *t.fires >= t.limit {
		t.e.Stop()
		return
	}
	t.i++
	t.e.Post2(deepDelays[t.i%len(deepDelays)], deepFire, t, nil)
}

func runSim(r *report) {
	const n = 2_000_000
	e := sim.NewEngine()
	shallowLoop(e, n/10) // grow the free lists
	shallow := timeOps(5, n, func() { shallowLoop(e, n) })
	r.put("sim.post_run_shallow_ns", shallow, "ns")
	ladder.simEventNS = func() float64 { return timeOps(1, n/4, func() { shallowLoop(e, n/4) }) }
	r.put("sim.allocs_per_event", allocsPerOp(n, func() { shallowLoop(e, n) }), "count")

	// The digest chain folds every dispatched event; its cost is the
	// difference on the same loop, from alternating runs.
	ed := sim.NewEngine()
	ed.SetDigest(sim.NewDigest())
	shallowLoop(ed, n/10)
	fracs := make([]float64, 5)
	for i := range fracs {
		plain := timeOps(1, n/2, func() { shallowLoop(e, n/2) })
		fracs[i] = timeOps(1, n/2, func() { shallowLoop(ed, n/2) })/plain - 1
	}
	r.put("sim.digest_fold_frac", medianOf(fracs), "ratio")

	// 100k self-re-arming timers: the wheel stays deep while 2M of them fire.
	const pending, fires = 100_000, 2_000_000
	deep := 0.0
	for rep := 0; rep < 2; rep++ {
		de := sim.NewEngine()
		count := 0
		for i := 0; i < pending; i++ {
			t := &deepTimer{e: de, fires: &count, limit: fires, i: i}
			de.Post2(deepDelays[i%len(deepDelays)]+sim.Time(i)*sim.Nanosecond, deepFire, t, nil)
		}
		if ns := timeOps(1, fires, de.Run); rep == 0 || ns < deep {
			deep = ns
		}
	}
	r.put("sim.post_run_deep_ns", deep, "ns")

	// The RTO pattern: every ACK cancels the pending timer and arms a new one.
	ce := sim.NewEngine()
	noop := func() {}
	cancelLoop := func() {
		for i := 0; i < n; i++ {
			ev := ce.After(100*sim.Microsecond, noop)
			ce.Cancel(ev)
			if i%1024 == 0 {
				ce.RunUntil(ce.Now() + sim.Nanosecond)
			}
		}
		ce.Run()
	}
	cancelLoop()
	r.put("sim.cancel_ns", timeOps(3, n, cancelLoop), "ns")
}
