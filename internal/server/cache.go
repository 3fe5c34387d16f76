package server

import (
	"container/list"
	"sync"
)

// resultCache is a bounded LRU over serialized response bodies, keyed by
// the canonical request hash. It stores the exact bytes that were sent on
// the miss, so a hit is byte-identical to the miss by construction.
type resultCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key  string
	body []byte
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns the stored body for key and refreshes its recency.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores body under key, evicting the least-recently-used entry when
// the cache is over its bound; the bound never changes, so one eviction
// per put keeps it. Storing an existing key updates the body and recency
// in place — it never inserts a duplicate. The caller must not mutate
// body afterwards.
func (c *resultCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).body = body
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
	if c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// len reports the live entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// computed is what one search computes for a request: the response bytes
// plus the outcome metadata the breaker and telemetry need.
type computed struct {
	body      []byte
	outcome   string // "ok", "degraded", "fallback"
	cacheable bool
	failure   bool // counts against the circuit breaker
}

// flightGroup deduplicates concurrent identical requests (singleflight):
// the first caller of a key computes, everyone else arriving before it
// finishes waits for and shares the same result, so a thundering herd of
// identical requests costs one search.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	res  computed
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn once per key at a time; concurrent callers share the leader's
// result. shared reports that this caller rode along instead of computing.
func (g *flightGroup) do(key string, fn func() (computed, error)) (res computed, shared bool, err error) {
	g.mu.Lock()
	if call, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-call.done
		return call.res, true, call.err
	}
	call := &flightCall{done: make(chan struct{})}
	g.calls[key] = call
	g.mu.Unlock()

	call.res, call.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(call.done)
	return call.res, false, call.err
}
