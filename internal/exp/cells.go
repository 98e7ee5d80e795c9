package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"prioplus/internal/obs"
)

// running counts the registered runs in progress and helpers the goroutines
// cells has borrowed, both process-wide. Each run holds a core and each
// helper one more, and a helper is taken only while together they hold
// fewer than GOMAXPROCS, read at every acquire. So GOMAXPROCS=1 is serial,
// and the workers of an `all` batch or of the job server leave the helpers
// only the cores their runs leave idle, such as beside a batch's last run.
var running, helpers atomic.Int32

// tryHelper takes one helper slot if a core is free. It never blocks: a
// caller that gets no slot runs its cells itself. A caller outside any
// registered run (a test, an example) counts as one run.
func tryHelper() bool {
	for {
		h := helpers.Load()
		if h+max(running.Load(), 1) >= int32(runtime.GOMAXPROCS(0)) {
			return false
		}
		if helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

// cellPanic carries a cell's panic, and the stack it panicked on, to the
// caller of cells, where it is raised again.
type cellPanic struct {
	cell  int
	val   any
	stack []byte
}

// Error puts the cell's value on the first line and its stack after, so a
// one-line failure report still names the value.
func (p *cellPanic) Error() string {
	return fmt.Sprintf("cell %d: %v\n%s", p.cell, p.val, p.stack)
}

// cells runs a figure's n independent cells — each a private engine — on
// the calling goroutine plus whatever helpers tryHelper grants, and returns
// their results in index order. A cell must not touch state another cell
// can see; then the results, and so the figure bytes, do not depend on
// which goroutine ran which cell, or when.
//
// Cell i builds its runs from the Options it is handed. In an instrumented
// run that copy's NewRecorder notes which recorders cell i received, and
// once the cells return, o.order gets them in index order, so the sink
// lists the runs — their summary lines and artifacts — in the figure's
// order, whichever cell asked first. No cell calls cells: every fan-out is
// one flat level under a spec's run.
//
// start, when given, is the order the goroutines take the cells in, which
// decides whose heaps are live at once; the results still come back in
// index order. It must be a permutation of 0..n-1 (schemeStart gives one):
// anything else panics before a cell runs, since a repeated index would run
// one cell twice and leave another's result the zero value.
//
// A helper that finds no cell left marks itself done, then computes the
// memo's queued twins (Memo) before it gives its core back; the caller
// never waits for those.
//
// A panicking cell stops its siblings from taking new cells; once the running
// ones return, its panic (the first by index) is raised on the caller with
// the cell's stack, so a batch runner fails that one run.
func cells[T any](o Options, n int, cell func(i int, o Options) T, start ...int) []T {
	if start != nil {
		checkStart(n, start)
	}
	out := make([]T, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		first  *cellPanic
		wg     sync.WaitGroup
		recs   = make([][]*obs.Recorder, n)
	)
	opts := func(i int) Options {
		if o.order == nil {
			return o
		}
		c := o
		c.NewRecorder = func(tag string) *obs.Recorder {
			rec := o.NewRecorder(tag)
			mu.Lock()
			recs[i] = append(recs[i], rec)
			mu.Unlock()
			return rec
		}
		return c
	}
	work := func() {
		i := -1
		defer func() {
			if r := recover(); r != nil {
				failed.Store(true)
				mu.Lock()
				if first == nil || i < first.cell {
					first = &cellPanic{cell: i, val: r, stack: debug.Stack()}
				}
				mu.Unlock()
			}
		}()
		for !failed.Load() {
			if i = int(next.Add(1) - 1); i >= n {
				return
			}
			if start != nil {
				i = start[i]
			}
			out[i] = cell(i, opts(i))
		}
	}
	for h := 1; h < n && tryHelper(); h++ {
		wg.Add(1)
		go func() {
			work()
			o.memo.drain(wg.Done)
		}()
	}
	work()
	wg.Wait()
	if o.order != nil {
		o.order(recs)
	}
	if first != nil {
		panic(first)
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
