package exp

// Priority assignment: the policies the paper uses to approximate
// size-based scheduling. Flows (or coflows) are split into N groups by size,
// with smaller sizes mapped to higher priorities (§6.2: "we categorize all
// flows into groups by size, assigning higher priority to the smaller-sized
// flow group").

import "sort"

// sizeGroups maps sizes to priorities using fixed boundaries: a size below
// bounds[i] gets priority nprios-1-i (smaller size -> higher priority).
type sizeGroups struct {
	nprios int
	bounds []int64 // ascending, length nprios-1
}

// newSizeGroups derives group boundaries from quantiles of an observed
// size sample so each group carries roughly equal flow count.
func newSizeGroups(nprios int, sample []int64) sizeGroups {
	sorted := append([]int64(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	g := sizeGroups{nprios: nprios}
	for i := 1; i < nprios; i++ {
		idx := i * len(sorted) / nprios
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		g.bounds = append(g.bounds, sorted[idx])
	}
	return g
}

// newByteGroups derives boundaries so each group carries roughly equal
// bytes, which keeps per-priority load balanced (large flows get their own
// low priorities).
func newByteGroups(nprios int, sample []int64) sizeGroups {
	sorted := append([]int64(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total int64
	for _, s := range sorted {
		total += s
	}
	g := sizeGroups{nprios: nprios}
	var acc int64
	next := 1
	for _, s := range sorted {
		acc += s
		for next < nprios && acc >= int64(next)*total/int64(nprios) {
			g.bounds = append(g.bounds, s)
			next++
		}
	}
	for len(g.bounds) < nprios-1 {
		g.bounds = append(g.bounds, sorted[len(sorted)-1])
	}
	return g
}

// priorityFor returns the priority for a flow of the given size: the
// smallest-size group gets nprios-1 (highest), the largest gets 0.
func (g sizeGroups) priorityFor(size int64) int {
	i := sort.Search(len(g.bounds), func(i int) bool { return size <= g.bounds[i] })
	return g.nprios - 1 - i
}

// physicalQueueFor maps a virtual priority in [0, nprios) onto one of
// nQueues physical queues, squashing evenly when nprios > nQueues. This is
// how the "Physical" baselines run when the scheduler wants more
// priorities than the switch offers.
func physicalQueueFor(prio, nprios, nQueues int) int {
	if nprios <= nQueues {
		return prio
	}
	q := prio * nQueues / nprios
	if q >= nQueues {
		q = nQueues - 1
	}
	return q
}
