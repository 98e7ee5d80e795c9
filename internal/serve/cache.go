package serve

// cacheEntry is one memoized run: everything a hit needs to reproduce the
// original response byte-for-byte.
type cacheEntry struct {
	output    string
	fp        string
	artifacts []Artifact
	wallMS    float64
	events    uint64
}

// resultCache memoizes finished runs keyed by the full determinism tuple
// (see cacheKey). Eviction is FIFO — runs are equally cheap to recompute,
// so recency bookkeeping buys nothing. Guarded by Scheduler.mu.
type resultCache struct {
	max     int
	entries map[string]cacheEntry
	order   []string // insertion order, for eviction
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, entries: map[string]cacheEntry{}}
}

func (c *resultCache) get(key string) (cacheEntry, bool) {
	e, ok := c.entries[key]
	return e, ok
}

func (c *resultCache) put(key string, e cacheEntry) {
	if _, ok := c.entries[key]; !ok {
		for len(c.order) >= c.max {
			evict := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, evict)
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = e
}

func (c *resultCache) len() int {
	return len(c.entries)
}
