package sim

import (
	"math/rand"
	"testing"
)

// TestLazyRandStream: a lazy generator holds no source until its first draw,
// then yields, draw for draw across every method, the stream an eagerly
// seeded one does, including after a reseed.
func TestLazyRandStream(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 0x5bd1e995} {
		l := &lazySource{seed: seed}
		lazy, eager := rand.New(l), rand.New(rand.NewSource(seed))
		if l.src != nil {
			t.Fatalf("seed %d: source allocated before the first draw", seed)
		}
		for i := 0; i < 200; i++ {
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
