// Package cache is the compile service's result store: a bounded
// in-memory LRU, a persistent disk tier, and the TwoLevel store that
// layers them. The simulated I/D-cache hardware model lives with the
// simulator, in internal/pipeline.
package cache

import (
	"container/list"
	"sync"
)

// LRU is a bounded, concurrency-safe least-recently-used map from
// string keys to values. It is the in-memory tier of the service's
// result cache (see TwoLevel); the zero capacity disables it, so a
// disabled cache and a full cache share one code path.
type LRU[V any] struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	m         map[string]*list.Element
	evictions int64
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU builds a cache bounded to max entries; max <= 0 disables
// caching (every lookup misses, every store is dropped).
func NewLRU[V any](max int) *LRU[V] {
	return &LRU[V]{max: max, ll: list.New(), m: map[string]*list.Element{}}
}

// Get returns the cached value and refreshes its recency.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*lruEntry[V]).val, true
}

// Put stores the value, evicting the least recently used entries once
// the capacity is exceeded.
func (c *LRU[V]) Put(key string, val V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		e.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(e)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry[V]).key)
		c.evictions++
	}
}

// Len reports the number of cached entries.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Evictions reports how many entries capacity pressure has pushed out.
func (c *LRU[V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
