package exp

import (
	"fmt"
	"slices"

	"prioplus/internal/obs"
)

// cells runs a figure's n independent cells — each a private engine — on
// the caller and the executor's helper goroutines (exec), and returns
// their results in index order. A cell touches no state another cell can
// see, so the figure bytes do not depend on who ran which cell, or when.
//
// Cell i builds its runs from the Options it is handed, whose NewRecorder,
// in an instrumented run, notes the recorders cell i received; once the
// cells return, o.order gets them in index order, so the sink lists the
// runs in the figure's order. No cell calls cells.
//
// start, when given, is the order the cells are handed out in, which
// decides whose heaps are live at once. It must be a permutation of
// 0..n-1 (schemeStart gives one), or cells panics before a cell runs: a
// repeated index would run one cell twice and leave another's result zero.
//
// A panicking cell stops its siblings from taking new cells; once the running
// ones return, its panic (the first by index) is raised on the caller with
// the cell's stack, so a batch runner fails that one run.
func cells[T any](o Options, n int, cell func(i int, o Options) T, start ...int) []T {
	if start != nil {
		checkStart(n, start)
	}
	out := make([]T, n)
	recs := make([][]*obs.Recorder, n) // recs[i] is written by cell i only
	f := &fanOut{n: n, start: start, cell: func(i int) {
		c := o
		if o.order != nil {
			c.NewRecorder = func(tag string) *obs.Recorder {
				rec := o.NewRecorder(tag)
				recs[i] = append(recs[i], rec)
				return rec
			}
		}
		out[i] = cell(i, c)
	}}
	exec.fanOut(f)
	if o.order != nil {
		o.order(recs)
	}
	if f.first != nil {
		panic(f.first)
	}
	return out
}

// checkStart panics, naming n and the offending index, unless start is a
// permutation of 0..n-1.
func checkStart(n int, start []int) {
	seen := make([]bool, n)
	for _, i := range start {
		if i < 0 || i >= n || seen[i] {
			panic(fmt.Sprintf("cells: start order %v for n=%d cells: index %d repeated or out of range", start, n, i))
		}
		seen[i] = true
	}
	if i := slices.Index(seen, false); i >= 0 {
		panic(fmt.Sprintf("cells: start order %v for n=%d cells: index %d missing", start, n, i))
	}
}

// schemeStart is the start order every driver whose cells are indexed by
// scheme passes to cells (faultsweep, the coflow family, fig12c, fig14,
// fig16). On two cores it decides both the wall time and which heaps are
// live at once. It ranks only on Scheme flags, never on an id, a position
// or a wall time measured on one host:
//   - an INT-stamping cell (HPCC) starts first: it is the longest cell of
//     fig16, fig18 and faultsweep, and started last it would run alone at
//     the end;
//   - a cell whose congestion control does not bound the backlog a paused
//     fabric builds (unboundedBacklog: DCQCN, Physical* w/o CC) starts
//     last: its heap can be its figure's largest by far, so it overlaps as
//     few cells as the order allows;
//   - the others keep their list order between the two.
func schemeStart(schemes []Scheme) []int {
	rank := func(s Scheme) int {
		switch {
		case s.stampINT:
			return 0
		case s.unboundedBacklog:
			return 2
		}
		return 1
	}
	order := make([]int, len(schemes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return rank(schemes[a]) - rank(schemes[b]) })
	return order
}
