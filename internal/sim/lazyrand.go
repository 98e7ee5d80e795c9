package sim

import "math/rand"

// LazyRand returns a generator that yields the stream
// rand.New(rand.NewSource(seed)) would, but seeds its source on the first
// draw. A math/rand source is 4.9 KB of state and its seeding is not free,
// so objects that own a generator they may never draw from — a flow's probe
// jitter, a switch's ECN marking — hold one of these instead.
func LazyRand(seed int64) *rand.Rand { return rand.New(&lazySource{seed: seed}) }

// lazySource is LazyRand's source: nil until the first draw.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) get() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.get().Int63() }
func (l *lazySource) Uint64() uint64  { return l.get().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }
