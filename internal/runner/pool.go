package runner

import (
	"runtime"
	"sync"
	"time"
)

// Pool is the package's one worker loop: the serve layer's job queue keeps
// one open for tasks that arrive over time, and Run opens one per batch.
// Every task gets panic isolation (a panicking task fails only itself) and
// a per-task wall-clock timeout (a hung run is abandoned and reported as
// timed out) from the execute step. The queue is bounded; TrySubmit refuses
// rather than blocks when it is full, which is how the job server turns
// overload into backpressure (HTTP 429) instead of unbounded memory growth.
type Pool struct {
	queue   chan poolItem
	timeout time.Duration
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

type poolItem struct {
	task  Task
	index int // Result.Index: the task's position in a Run batch, 0 otherwise
	done  func(Result)
}

// NewPool starts a pool with the given number of worker goroutines
// (<= 0 means GOMAXPROCS) draining a queue of the given depth (<= 0 means
// one slot per worker). timeout bounds each task's wall clock (0 = none).
func NewPool(workers, depth int, timeout time.Duration) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = workers
	}
	p := &Pool{queue: make(chan poolItem, depth), timeout: timeout}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for it := range p.queue {
				r := execute(it.task, it.index, p.timeout)
				if it.done != nil {
					it.done(r)
				}
			}
		}()
	}
	return p
}

// TrySubmit enqueues t without blocking and reports whether it was
// accepted: false means the queue is full (backpressure) or the pool is
// closed. done, when non-nil, is called on the worker goroutine with the
// task's result once it finishes.
func (p *Pool) TrySubmit(t Task, done func(Result)) bool {
	return p.submit(poolItem{task: t, done: done})
}

func (p *Pool) submit(it poolItem) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.queue <- it:
		return true
	default:
		return false
	}
}

// Close stops intake, drains already-queued tasks, and waits for the
// workers to finish. Tasks abandoned by a timeout may still be running on
// their own goroutines when Close returns — the same contract batch mode
// has (the process exit reaps them).
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
}
