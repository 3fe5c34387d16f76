// Package evalcache is the shared evaluation cache: a sharded, bounded,
// concurrency-safe store for finished CME evaluation results, shared
// across GA islands, successive searches, and tiling-service requests.
//
// Three tiers live behind one size bound:
//
//   - fitness: GA objective values keyed by (scope, genome bits), where
//     the scope hashes the search phase, nest IR, cache geometry and
//     sample fingerprint. A hit replays a finished evaluation from an
//     earlier search.
//   - stats: finalized per-tile cachesim.Stats keyed by (nest, geometry,
//     sample, iteration space), recalling the full classification
//     breakdown for a tile that was already finalized.
//   - pool: bound analyzer pools keyed by (nest, geometry), so a repeated
//     request reuses the CME setup work (reference-group analysis,
//     buffers) instead of rebuilding it.
//
// Determinism contract: a fitness or stats value is a pure function of
// its key — the sampled-miss objective depends only on the nest content,
// cache geometry, sample set and candidate genome — so recalling it is
// result-transparent. Callers must never store values that are not
// (quarantine sentinels, poisoned +Inf results); the cache itself only
// stores and recalls.
//
// Eviction is per-shard LRU with a fixed bound, so one insert evicts at
// most one entry under the shard mutex.
package evalcache

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/cachesim"
	"repro/internal/cme"
	"repro/internal/telemetry"
)

// Config sizes the cache.
type Config struct {
	// MaxEntries bounds the total fitness + stats entry count across all
	// shards; 0 means DefaultMaxEntries.
	MaxEntries int
	// Observer receives evalcache_hit/miss/evict events and counter
	// deltas; nil disables telemetry at zero cost.
	Observer telemetry.Recorder
}

const (
	// DefaultMaxEntries is the bound a zero Config.MaxEntries means.
	DefaultMaxEntries = 1 << 15
	// numShards is the fixed shard count, a power of two: enough to keep
	// concurrent searches off each other's mutex.
	numShards = 16
	// maxPools bounds how many (nest, geometry) keys retain a parked
	// analyzer pool. Pools are heavyweight (per-worker solver state), so
	// the bound is small: enough for a service's hot kernels.
	maxPools = 8
)

type entry struct {
	key string
	val any // float64 (fitness) or cachesim.Stats (stats)
}

type shard struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

// Cache is the shared evaluation cache. The zero value is not usable;
// construct with New. A nil *Cache is the canonical "disabled" state and
// is what Options.SharedCache left unset means.
type Cache struct {
	shards []*shard
	seed   maphash.Seed
	obs    telemetry.Recorder

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	poolMu    sync.Mutex
	pools     map[string]*list.Element
	poolOrder *list.List // front = most recently returned
}

type poolEntry struct {
	key  string
	pool []*cme.Analyzer
}

// New builds a cache from cfg, applying defaults for zero values.
func New(cfg Config) *Cache {
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	perShard := (maxEntries + numShards - 1) / numShards
	c := &Cache{
		shards:    make([]*shard, numShards),
		seed:      maphash.MakeSeed(),
		obs:       cfg.Observer,
		pools:     make(map[string]*list.Element),
		poolOrder: list.New(),
	}
	for i := range c.shards {
		c.shards[i] = &shard{max: perShard, order: list.New(), items: make(map[string]*list.Element)}
	}
	return c
}

func (c *Cache) shardOf(key string) *shard {
	return c.shards[maphash.String(c.seed, key)&(numShards-1)]
}

// get looks key up in its shard and refreshes recency on a hit.
func (c *Cache) get(key, tier string) (any, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var v any
	if ok {
		s.order.MoveToFront(el)
		v = el.Value.(*entry).val
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		if c.obs != nil {
			c.obs.Event(telemetry.EvalCacheHit{Tier: tier})
			c.obs.Add(telemetry.Counters{EvalCacheHits: 1})
		}
		return v, true
	}
	c.misses.Add(1)
	if c.obs != nil {
		c.obs.Event(telemetry.EvalCacheMiss{Tier: tier})
		c.obs.Add(telemetry.Counters{EvalCacheMisses: 1})
	}
	return nil, false
}

// put stores val under key; an existing key is updated in place. A new
// key that puts the shard over its bound evicts the least-recently-used
// entry.
func (c *Cache) put(key string, val any) {
	s := c.shardOf(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		el.Value.(*entry).val = val
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[key] = s.order.PushFront(&entry{key: key, val: val})
	evicted := s.order.Len() > s.max
	if evicted {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*entry).key)
	}
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
		if c.obs != nil {
			c.obs.Event(telemetry.EvalCacheEvict{Evicted: 1})
			c.obs.Add(telemetry.Counters{EvalCacheEvictions: 1})
		}
	}
}

// GetFitness recalls a finished GA objective value.
func (c *Cache) GetFitness(key string) (float64, bool) {
	v, ok := c.get("f:"+key, "fitness")
	if !ok {
		return 0, false
	}
	return v.(float64), true
}

// PutFitness stores a finished GA objective value. Callers filter out
// sentinel values (quarantine fitness, ±Inf, NaN) before storing.
func (c *Cache) PutFitness(key string, v float64) { c.put("f:"+key, v) }

// GetStats recalls finalized per-tile classification statistics.
func (c *Cache) GetStats(key string) (cachesim.Stats, bool) {
	v, ok := c.get("s:"+key, "stats")
	if !ok {
		return cachesim.Stats{}, false
	}
	return v.(cachesim.Stats), true
}

// PutStats stores finalized per-tile classification statistics.
func (c *Cache) PutStats(key string, st cachesim.Stats) { c.put("s:"+key, st) }

// CheckoutPool removes and returns the parked analyzer pool for key, if
// any. Removal (not sharing) keeps analyzers single-owner: concurrent
// searches over the same nest each check out at most one pool and the
// rest rebuild.
func (c *Cache) CheckoutPool(key string) ([]*cme.Analyzer, bool) {
	c.poolMu.Lock()
	el, ok := c.pools[key]
	var pool []*cme.Analyzer
	if ok {
		pool = el.Value.(*poolEntry).pool
		c.poolOrder.Remove(el)
		delete(c.pools, key)
	}
	c.poolMu.Unlock()
	if c.obs != nil {
		if ok {
			c.obs.Event(telemetry.EvalCacheHit{Tier: "pool"})
			c.obs.Add(telemetry.Counters{EvalCacheHits: 1})
		} else {
			c.obs.Event(telemetry.EvalCacheMiss{Tier: "pool"})
			c.obs.Add(telemetry.Counters{EvalCacheMisses: 1})
		}
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return pool, ok
}

// ReturnPool parks an analyzer pool under key for a later search over
// the same nest and geometry. A pool already parked under key is
// replaced; beyond maxPools distinct keys the least-recently-returned
// pool is dropped. The caller must not use pool afterwards.
func (c *Cache) ReturnPool(key string, pool []*cme.Analyzer) {
	if len(pool) == 0 {
		return
	}
	evicted := 0
	c.poolMu.Lock()
	if el, ok := c.pools[key]; ok {
		el.Value.(*poolEntry).pool = pool
		c.poolOrder.MoveToFront(el)
	} else {
		c.pools[key] = c.poolOrder.PushFront(&poolEntry{key: key, pool: pool})
		for c.poolOrder.Len() > maxPools {
			oldest := c.poolOrder.Back()
			c.poolOrder.Remove(oldest)
			delete(c.pools, oldest.Value.(*poolEntry).key)
			evicted++
		}
	}
	c.poolMu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
		if c.obs != nil {
			c.obs.Event(telemetry.EvalCacheEvict{Evicted: evicted})
			c.obs.Add(telemetry.Counters{EvalCacheEvictions: uint64(evicted)})
		}
	}
}

// Len reports the live fitness + stats entry count across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Metrics is a point-in-time accounting snapshot.
type Metrics struct {
	// Hits and Misses count lookups across all tiers (fitness, stats,
	// pool); Evictions counts entries dropped by the size bound.
	Hits, Misses, Evictions uint64
	// Entries is the live fitness + stats entry count.
	Entries int
}

// Metrics returns the cache's accounting snapshot.
func (c *Cache) Metrics() Metrics {
	return Metrics{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
