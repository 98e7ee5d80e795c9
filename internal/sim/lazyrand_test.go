package sim

import (
	"math/rand"
	"testing"
)

// TestLazyRandStream: a lazy generator holds no source, and leaves its
// engine's seed witness unmarked, until its first draw; then it yields, draw
// for draw across every method, the stream an eagerly seeded one does,
// including after a reseed.
func TestLazyRandStream(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 0x5bd1e995} {
		eng := NewEngine()
		l := &lazySource{seed: seed, eng: eng}
		lazy, eager := rand.New(l), eng.Rand(seed)
		if l.src != nil {
			t.Fatalf("seed %d: source allocated before the first draw", seed)
		}
		eng.seeded = false // Rand marked it; the lazy source must do so itself
		for i := 0; i < 200; i++ {
			if i == 1 && !eng.Seeded() {
				t.Fatalf("seed %d: the first lazy draw left the witness unmarked", seed)
			}
			if i == 100 {
				lazy.Seed(seed + 1)
				eager.Seed(seed + 1)
			}
			a := []any{lazy.Int63(), lazy.Uint64(), lazy.Float64(), lazy.Intn(1000), lazy.ExpFloat64()}
			b := []any{eager.Int63(), eager.Uint64(), eager.Float64(), eager.Intn(1000), eager.ExpFloat64()}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("seed %d, draw %d.%d: lazy %v, eager %v", seed, i, k, a[k], b[k])
				}
			}
		}
	}
}

// TestSeedWitness: building a lazy stream reads no seed, building an eager
// one does, and NewRand never reports to a witness.
func TestSeedWitness(t *testing.T) {
	eng := NewEngine()
	eng.LazyRand(1)
	NewRand(2).Int63()
	if eng.Seeded() {
		t.Fatal("an undrawn lazy stream or a NewRand stream marked the witness")
	}
	eng.Rand(3)
	if !eng.Seeded() {
		t.Fatal("Rand left the witness unmarked")
	}
}
