package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
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

// cells runs a figure's n independent cells — each a private engine — and
// returns their results in index order. A cell must not touch state another
// cell can see; then the results, and so the figure bytes, do not depend on
// which goroutine ran which cell, or when.
//
// A hooks-off run (o.NewRecorder == nil) runs the cells on the calling
// goroutine plus whatever helpers tryHelper grants. An instrumented run takes
// no helper, so the caller runs its cells in order, as a loop would:
// recorders are handed out, artifacts written and fingerprints printed in the
// figure's order, and only one run's series is in memory at a time.
//
// start, when given, is the order the goroutines of a hooks-off run take
// the cells in, which decides whose heaps are live at once; the results
// still come back in index order. An instrumented run ignores it.
//
// A panicking cell stops its siblings from taking new cells; once the running
// ones return, its panic (the first by index) is raised on the caller with
// the cell's stack, so a batch runner fails that one run.
func cells[T any](o Options, n int, cell func(i int) T, start ...int) []T {
	if o.NewRecorder != nil {
		start = nil
	}
	out := make([]T, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		first  *cellPanic
		wg     sync.WaitGroup
	)
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
			out[i] = cell(i)
		}
	}
	for h := 1; h < n && o.NewRecorder == nil && tryHelper(); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer helpers.Add(-1)
			work()
		}()
	}
	work()
	wg.Wait()
	if first != nil {
		panic(first)
	}
	return out
}
