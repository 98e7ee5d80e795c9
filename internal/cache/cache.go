// Package cache is the one result cache of the module: a bounded map from
// string keys to values, with FIFO eviction. The job server memoizes
// finished jobs in one (serve), and an `all` batch memoizes hooks-off
// scenario cells in another (exp.Memo, whose executor keeps the cells in
// flight).
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
}

// New returns an empty cache bounded at size entries (at least one).
func New[V any](size int) *Cache[V] {
	return &Cache[V]{max: max(size, 1), entries: map[string]V{}}
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
