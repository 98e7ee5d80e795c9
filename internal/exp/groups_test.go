package exp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"prioplus/internal/workload"
)

func webSearchSizes(n int) []int64 {
	d := workload.WebSearch()
	rng := rand.New(rand.NewSource(1))
	out := make([]int64, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

func TestSizeGroupsSmallerIsHigher(t *testing.T) {
	g := newSizeGroups(8, webSearchSizes(10_000))
	if got := g.priorityFor(6000); got != 7 {
		t.Errorf("smallest flow priority = %d, want 7 (highest)", got)
	}
	if got := g.priorityFor(30_000_000); got != 0 {
		t.Errorf("largest flow priority = %d, want 0 (lowest)", got)
	}
	prev := g.priorityFor(1)
	for _, s := range []int64{1e4, 1e5, 1e6, 1e7, 3e7} {
		p := g.priorityFor(s)
		if p > prev {
			t.Errorf("priority increased with size at %d", s)
		}
		prev = p
	}
}

func TestSizeGroupsRoughlyBalancedCounts(t *testing.T) {
	s := webSearchSizes(50_000)
	g := newSizeGroups(8, s)
	counts := make([]int, 8)
	for _, size := range s {
		counts[g.priorityFor(size)]++
	}
	for p, c := range counts {
		frac := float64(c) / float64(len(s))
		if frac < 0.02 || frac > 0.35 {
			t.Errorf("priority %d holds %.0f%% of flows; grouping degenerate", p, frac*100)
		}
	}
}

func TestByteGroupsBalanceBytes(t *testing.T) {
	s := webSearchSizes(50_000)
	g := newByteGroups(4, s)
	bytes := make([]int64, 4)
	var total int64
	for _, size := range s {
		bytes[g.priorityFor(size)] += size
		total += size
	}
	for p, b := range bytes {
		frac := float64(b) / float64(total)
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("priority %d carries %.0f%% of bytes, want ~25%%", p, frac*100)
		}
	}
}

func TestPhysicalQueueFor(t *testing.T) {
	// 12 virtual priorities on 8 queues: order-preserving squash.
	prev := -1
	for p := 0; p < 12; p++ {
		q := physicalQueueFor(p, 12, 8)
		if q < prev {
			t.Errorf("queue mapping not monotone at %d", p)
		}
		if q < 0 || q > 7 {
			t.Errorf("queue %d out of range", q)
		}
		prev = q
	}
	// Fewer priorities than queues: identity.
	for p := 0; p < 4; p++ {
		if physicalQueueFor(p, 4, 8) != p {
			t.Error("identity mapping expected when nprios <= nqueues")
		}
	}
}

// Property: priorityFor is monotone nonincreasing in size and always in
// range, for any sample set.
func TestPriorityMonotoneProperty(t *testing.T) {
	f := func(seed int64, nprios uint8) bool {
		n := int(nprios%12) + 2
		g := newSizeGroups(n, webSearchSizes(500))
		rng := rand.New(rand.NewSource(seed))
		prevSize := int64(0)
		prevPrio := n
		for i := 0; i < 50; i++ {
			prevSize += rng.Int63n(1 << 20)
			p := g.priorityFor(prevSize)
			if p < 0 || p >= n || p > prevPrio {
				return false
			}
			prevPrio = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
