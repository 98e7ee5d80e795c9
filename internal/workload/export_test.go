package workload

import "prioplus/internal/sim"

// Incast returns n synchronized flows of the given size from distinct
// senders to one receiver, the paper's Fig 10b stress pattern.
func Incast(n int, size int64, dst int, at sim.Time) []FlowEvent {
	out := make([]FlowEvent, 0, n)
	src := 0
	for len(out) < n {
		if src == dst {
			src++
			continue
		}
		out = append(out, FlowEvent{At: at, Src: src, Dst: dst, Size: size})
		src++
	}
	return out
}
