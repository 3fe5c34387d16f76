// Package lru is the one bounded least-recently-used map behind every
// bounded cache of the program: the shards of the shared evaluation
// cache, tilingd's result cache and its idempotency index. The cache
// simulator keeps its own lock-free LRU (internal/cachesim), since its
// per-access loop must not take a mutex.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU map, safe for concurrent use. Its bound never
// changes, so one eviction per insert keeps it.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most max entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, order: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value stored under key and marks it most recently
// used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key as the most recently used entry. An existing
// key is updated in place, never duplicated. A new key that takes the
// cache over its bound evicts the least recently used entry, and Put
// reports whether it did.
func (c *Cache[K, V]) Put(key K, val V) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return false
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	if c.order.Len() <= c.max {
		return false
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	delete(c.items, oldest.Value.(*entry[K, V]).key)
	return true
}

// Len reports the live entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
