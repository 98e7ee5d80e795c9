package sim

import "math/rand"

// A run's random streams are derived from its seed, and this file is the
// only place in the simulator that builds a math/rand source. Every stream
// a run derives from its seed comes from its engine, which notes the first
// time the seed is actually read: its seed witness (Seeded). A run that
// ends with the witness unmarked never read its seed, so its results hold
// for every seed. Streams a run draws from anyway (workload generators,
// delay noise) mark the witness when they are built, so their draws pay
// nothing extra; streams a run may never touch (a switch's ECN marking, a
// flow's probe jitter, a link's impairments) mark it on their first draw.

// Rand returns rand.New(rand.NewSource(seed)) for a stream derived from the
// run's seed, and marks the engine's seed witness.
func (e *Engine) Rand(seed int64) *rand.Rand {
	e.seeded = true
	return NewRand(seed)
}

// LazyRand returns a generator that yields the stream Rand would, but
// seeds its source, and marks the engine's seed witness, on the first draw.
// A math/rand source is 4.9 KB of state and its seeding is not free, so
// objects that own a generator they may never draw from hold one of these
// instead.
func (e *Engine) LazyRand(seed int64) *rand.Rand { return rand.New(&lazySource{seed: seed, eng: e}) }

// Seeded reports whether the run has read its seed: built a stream with
// Rand, or drawn from one built with LazyRand.
func (e *Engine) Seeded() bool { return e.seeded }

// NewRand returns rand.New(rand.NewSource(seed)) for a stream no run's seed
// derives: a constant of the program (a workload's calibration sample) or
// a measurement made outside any engine (fig7's noise CDF). It marks no
// witness, so a stream derived from a run's seed must not come from here.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// lazySource is LazyRand's source: nil until the first draw.
type lazySource struct {
	seed int64
	src  rand.Source64
	eng  *Engine
}

func (l *lazySource) get() rand.Source64 {
	if l.src == nil {
		l.eng.seeded = true
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.get().Int63() }
func (l *lazySource) Uint64() uint64  { return l.get().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }
