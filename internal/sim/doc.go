// Package sim provides a deterministic discrete-event simulation engine
// with a picosecond clock.
//
// The engine drives every other component of the simulator: network ports
// schedule packet serialization and propagation, transports schedule
// pacing and retransmission timers, and experiments schedule flow
// arrivals. Reading this doc top to bottom is the engine's contract; the
// tests in engine_test.go, sampler_test.go, wheel_test.go, and
// queue_equiv_test.go pin every clause.
//
// # Scheduling
//
// An Engine is single-threaded; batch parallelism is achieved by running
// one engine per (experiment, seed) run (see internal/runner). There is one
// callback shape, func(a, b any), and four ways to post one, each returning
// the *Event so the caller can Cancel it or Tag it with a cost-attribution
// kind. Post2 (relative time) is the primitive: a package-level function
// plus two pre-boxed arguments, zero allocations — every per-packet and
// per-timer event in netsim and transport is a Post2 of a package-level
// function taking the object it acts on. At (absolute time) and After
// (relative time) take a closure and are for set-up and experiment code.
// PostAtSeq files an event under a dispatch rank reserved earlier with
// ReserveSeq. Scheduling in the past panics; a negative relative delay is
// clamped to zero.
//
// # Ordering and determinism
//
// Events are dispatched in strict (time, sequence) order: timestamps
// ascending, and FIFO among events that share a timestamp. Because the
// sequence number is assigned at scheduling time, a run's dispatch order
// is a pure function of its schedule calls, which makes every run
// bit-for-bit reproducible for a fixed seed — the property all figure
// reproductions and the parallel batch runner rely on.
//
// Events that share a timestamp are dispatched as one batch: the engine
// invokes the whole same-timestamp cohort back to back off the front of
// the queue. Events a callback schedules at the current timestamp join
// the order after every member already queued (their sequence numbers
// are higher); canceling a not-yet-dispatched member of the running batch
// takes effect.
//
// # The event queue
//
// The queue is a hierarchical timing wheel (wheel.go): three levels of
// 1024 slots, a level-0 slot spanning 8.192 ns, each higher level 1024×
// coarser, for a ~8.8 s horizon, with an overflow heap behind that accepts
// any timestamp beyond it. A slot is an intrusive linked list threaded
// through the pooled events themselves, so insertion for the short-horizon
// events that dominate simulation (serialization, propagation, pacing) is
// O(1) — one compare, two pointer stores, one bitmap OR — and cursor
// advance skips empty time via occupancy bitmaps. A drained slot (a
// handful of events, typically) is copied into the due run and sorted
// once, which restores exact (time, seq) order; dispatch pops the run, and
// the occasional event scheduled at or behind the cursor is inserted at
// its sorted position. A warm engine never allocates. Cancel is lazy: O(1)
// marking with reclamation when the event's slot drains, plus a
// compaction sweep when canceled entries dominate the queue, so
// cancel/re-arm patterns (RTO timers) cannot hold memory proportional to
// history.
//
// # Event ownership
//
// Every dispatched event — fired or canceled — is recycled through a
// per-engine free list, so steady-state scheduling allocates nothing. A
// caller holding an *Event handle for cancellation must drop the handle
// once the event has fired or been canceled; calling Cancel on a stale
// handle may cancel an unrelated future event. The idiomatic pattern is
// to nil the field as the first statement of the callback and right after
// Cancel.
//
// # Running and sampling
//
// Run executes until the schedule is empty or Stop is called; RunUntil
// executes events with timestamps <= end and then parks the clock at end.
// SetSampler installs a clock-driven hook that fires every fixed interval
// of simulated time, interleaved deterministically with the event stream
// (all events at or before an instant run first) without consuming queue
// events. TotalProcessed exposes a process-wide executed-event counter,
// updated once per RunUntil, which `prioplus-sim all` samples to report
// batch events/sec.
package sim
