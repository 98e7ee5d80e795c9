// Package runner executes independent simulation runs in parallel. It is
// the batch layer behind `prioplus-sim all`: a worker pool fans tasks —
// one per (experiment, seed) pair — across GOMAXPROCS goroutines.
//
// Parallelism is safe because of the simulator's engine-per-run design:
// every task builds its own sim.Engine, topo.Network, and random sources
// from its seed, so tasks share no mutable state and the hot path needs no
// locking. The pool guarantees:
//
//   - Deterministic results: Run returns results indexed by task position,
//     and each task's output depends only on its own inputs, so the result
//     slice is byte-identical whatever the worker count.
//   - Panic isolation: a panicking task fails only its own result (the
//     panic value and stack land in Result.Err); the rest of the batch
//     completes.
//   - Per-run timeouts: a task that exceeds Options.Timeout is abandoned
//     and reported as timed out. Simulation runs are uninterruptible
//     CPU-bound loops, so the abandoned goroutine finishes (or the process
//     exits) on its own; the worker moves on either way.
package runner

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Task is one independent unit of work: typically one experiment at one
// seed. Run must be self-contained — it builds its own engine and
// randomness and touches no shared state — or batch determinism is lost.
type Task struct {
	// Name identifies the task in results and error messages
	// (e.g. "fig11/seed=3").
	Name string
	// Run executes the task, returning its rendered output and optional
	// named metrics.
	Run func() (output string, metrics map[string]float64)
}

// Result is the outcome of one task. Exactly one of Output or Err is
// meaningful: Err is non-nil if the task panicked or timed out.
type Result struct {
	// Name and Index echo the task's identity and position in the batch.
	Name  string
	Index int
	// Output is the task's rendered text (empty on failure).
	Output string
	// Metrics are the task's named quantities (nil on failure).
	Metrics map[string]float64
	// Err is non-nil if the task panicked (wrapping the panic value and
	// stack) or timed out (wrapping ErrTimeout).
	Err error
	// Wall is the task's wall-clock duration; for a timed-out task it is
	// the timeout.
	Wall time.Duration
}

// ErrTimeout is wrapped by Result.Err when a run exceeds the pool timeout.
var ErrTimeout = errors.New("run exceeded timeout")

// Options configures a batch.
type Options struct {
	// Workers is the number of concurrent runs; <= 0 means GOMAXPROCS.
	// Workers == 1 executes the batch serially in submission order.
	Workers int
	// Timeout bounds each run's wall-clock time; 0 means no limit.
	Timeout time.Duration
	// OnResult, when non-nil, is called as each task completes (in
	// completion order, not task order — use Result.Index to locate the
	// task). Calls are serialized under an internal mutex, so the callback
	// may touch shared state (a progress line, a log) without locking.
	// It must be fast: it runs on the worker goroutine.
	OnResult func(Result)
}

// Run executes every task and returns one Result per task, in task order,
// regardless of worker count or completion order. It is a submit-and-wait
// over a Pool sized to the batch: the queue holds every task, so no submit
// is refused, and Close is the wait.
func Run(tasks []Task, opt Options) []Result {
	workers := opt.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	results := make([]Result, len(tasks))
	var mu sync.Mutex // serializes OnResult
	done := func(r Result) {
		results[r.Index] = r
		if opt.OnResult == nil {
			return
		}
		mu.Lock()
		opt.OnResult(r)
		mu.Unlock()
	}
	p := NewPool(workers, len(tasks), opt.Timeout)
	for i, t := range tasks {
		p.submit(poolItem{task: t, index: i, done: done})
	}
	p.Close()
	return results
}

// execute runs one task with panic capture and an optional deadline. The
// task body runs in its own goroutine so a hung run can be abandoned; the
// done channel is buffered so an abandoned run's final send never blocks.
func execute(t Task, i int, timeout time.Duration) Result {
	start := time.Now()
	done := make(chan Result, 1)
	go func() {
		res := Result{Name: t.Name, Index: i}
		defer func() {
			if r := recover(); r != nil {
				res.Output, res.Metrics = "", nil
				res.Err = fmt.Errorf("run %q panicked: %v", t.Name, r)
			}
			res.Wall = time.Since(start)
			done <- res
		}()
		res.Output, res.Metrics = t.Run()
	}()
	if timeout <= 0 {
		return <-done
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-done:
		return res
	case <-timer.C:
		return Result{
			Name:  t.Name,
			Index: i,
			Err:   fmt.Errorf("run %q: %w after %v", t.Name, ErrTimeout, timeout),
			Wall:  timeout,
		}
	}
}
