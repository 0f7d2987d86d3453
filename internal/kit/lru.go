// Package kit holds the serving tier's shared infrastructure, one
// implementation per concept: a coalescing call group (Group), a
// byte-budget LRU (LRU) and a crash-safe file writer (WriteFileAtomic).
// The result cache, the index cache, the corpus registry, the live-head
// set, the cache snapshot and the filesystem corpus store all build on
// these instead of keeping their own copies (DESIGN.md §8).
package kit

import (
	"container/list"
	"sync"
)

// LRU is a least-recently-used map bounded by a total cost budget. Each
// entry carries the cost its Put declared (bytes for the caches, 1 for
// a count cap); inserting evicts from the least recently used end until
// the budget holds. Values are treated as immutable: callers share
// them, and a key that is already present keeps its incumbent value.
// Safe for concurrent use.
type LRU[V any] struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	order   *list.List // front = most recently used; values are *lruEntry[V]
	entries map[string]*list.Element

	hits, misses, evictions uint64
}

type lruEntry[V any] struct {
	key  string
	val  V
	cost int64
}

// Entry is one key/value pair of an LRU, as returned by All.
type Entry[V any] struct {
	Key   string
	Value V
}

// LRUStats is a snapshot of an LRU's counters and usage.
type LRUStats struct {
	Hits      uint64 // Gets that found their key
	Misses    uint64 // Gets that did not
	Evictions uint64 // entries evicted to fit the budget
	Bytes     int64  // summed cost of the retained entries
	Entries   int    // retained entries
}

// NewLRU returns an empty LRU bounded at budget. budget <= 0 disables
// retention: every Put is dropped and every Get misses.
func NewLRU[V any](budget int64) *LRU[V] {
	return &LRU[V]{budget: budget, order: list.New(), entries: make(map[string]*list.Element)}
}

// Get returns the value under key and marks it most recently used,
// counting a hit or a miss.
func (c *LRU[V]) Get(key string) (V, bool) {
	return c.get(key, true)
}

// Peek is Get without touching the hit/miss counters, for a
// double-checked lookup that would otherwise count one request twice.
func (c *LRU[V]) Peek(key string) (V, bool) {
	return c.get(key, false)
}

func (c *LRU[V]) get(key string, count bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		if count {
			c.misses++
		}
		var zero V
		return zero, false
	}
	if count {
		c.hits++
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put inserts val under key at the given cost and reports whether it
// was inserted. An entry costing more than the whole budget is not
// retained (the caller still holds the value). A key already present
// keeps its incumbent value and is only marked most recently used: every
// cache here is content-addressed, so the same key means equivalent
// content.
func (c *LRU[V]) Put(key string, val V, cost int64) bool {
	if c.budget <= 0 || cost > c.budget {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return false
	}
	for c.used+cost > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.remove(back)
		c.evictions++
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val, cost: cost})
	c.used += cost
	return true
}

// Take removes the entry under key and returns its value.
func (c *LRU[V]) Take(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.remove(el)
	return el.Value.(*lruEntry[V]).val, true
}

// RemoveFunc removes every entry whose key satisfies match and reports
// how many it removed. Removals are not counted as evictions.
func (c *LRU[V]) RemoveFunc(match func(key string) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for key, el := range c.entries {
		if match(key) {
			c.remove(el)
			removed++
		}
	}
	return removed
}

// remove unlinks el under c.mu.
func (c *LRU[V]) remove(el *list.Element) {
	e := c.order.Remove(el).(*lruEntry[V])
	delete(c.entries, e.key)
	c.used -= e.cost
}

// All returns the entries ordered least recently used first, so that
// replaying them through Put rebuilds the same recency order.
func (c *LRU[V]) All() []Entry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[V], 0, len(c.entries))
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*lruEntry[V])
		out = append(out, Entry[V]{Key: e.key, Value: e.val})
	}
	return out
}

// Stats returns the cumulative counters and current usage.
func (c *LRU[V]) Stats() LRUStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return LRUStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Bytes: c.used, Entries: len(c.entries)}
}
