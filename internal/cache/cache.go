// Package cache is the one result cache of the module: a bounded map from
// string keys to values, with FIFO eviction and single-flight computation.
// The job server memoizes finished jobs in one (serve), and an `all` batch
// or a job server memoizes hooks-off scenario cells in another (exp.Memo).
package cache

import "sync"

// Cache holds at most max values. Eviction is FIFO: the values it holds are
// equally cheap to recompute, so recency bookkeeping buys nothing. All
// methods are safe for concurrent use.
type Cache[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[string]V
	order   []string // insertion order, for eviction
	calls   map[string]*call[V]
}

// call is one computation in flight under Do. done closes when it ends;
// ok says whether it returned a value, rather than panicking or exiting
// its goroutine.
type call[V any] struct {
	done chan struct{}
	v    V
	ok   bool
}

// New returns an empty cache bounded at size entries (at least one).
func New[V any](size int) *Cache[V] {
	return &Cache[V]{max: max(size, 1), entries: map[string]V{}, calls: map[string]*call[V]{}}
}

// Get returns the value stored under key.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	return v, ok
}

// Put stores v under key, evicting the oldest entries beyond the bound. A
// key already present keeps its place in the eviction order.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, v)
}

func (c *Cache[V]) put(key string, v V) {
	if _, ok := c.entries[key]; !ok {
		for len(c.order) >= c.max {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = v
}

// Len returns the number of stored values.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Do returns the value stored under key, or computes it with fn once for
// every caller that asks for key while fn runs. fn's value goes to all of
// them, and is stored under key when fn also returns true. computed
// reports whether this caller ran fn.
//
// A computation that does not return — fn panics, or exits its goroutine —
// is never stored. Its panic reaches its own caller only: the callers
// waiting on it wake and compute the value themselves, so none of them
// waits on a computation that will never finish.
func (c *Cache[V]) Do(key string, fn func() (V, bool)) (v V, computed bool) {
	for {
		c.mu.Lock()
		if v, ok := c.entries[key]; ok {
			c.mu.Unlock()
			return v, false
		}
		if cl, ok := c.calls[key]; ok {
			c.mu.Unlock()
			<-cl.done
			if cl.ok {
				return cl.v, false
			}
			continue // the leader failed: lead the next attempt
		}
		cl := &call[V]{done: make(chan struct{})}
		c.calls[key] = cl
		c.mu.Unlock()
		return c.lead(key, cl, fn), true
	}
}

// TryDo is Do for a caller that will not wait: it computes the value with
// fn, as Do would, only when key is neither stored nor being computed, and
// reports whether it did.
func (c *Cache[V]) TryDo(key string, fn func() (V, bool)) bool {
	c.mu.Lock()
	_, stored := c.entries[key]
	_, busy := c.calls[key]
	if stored || busy {
		c.mu.Unlock()
		return false
	}
	cl := &call[V]{done: make(chan struct{})}
	c.calls[key] = cl
	c.mu.Unlock()
	c.lead(key, cl, fn)
	return true
}

// Busy reports whether a computation of key is in flight.
func (c *Cache[V]) Busy(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.calls[key]
	return ok
}

// lead runs fn for the callers of Do waiting on cl, and releases them
// however fn ends.
func (c *Cache[V]) lead(key string, cl *call[V], fn func() (V, bool)) V {
	defer func() {
		c.mu.Lock()
		delete(c.calls, key)
		c.mu.Unlock()
		close(cl.done)
	}()
	v, store := fn()
	c.mu.Lock()
	cl.v, cl.ok = v, true
	if store {
		c.put(key, v)
	}
	c.mu.Unlock()
	return v
}
