// Package evalcache is the shared evaluation cache: a sharded, bounded,
// concurrency-safe store for finished CME evaluation results, shared
// across GA islands, successive searches, and tiling-service requests.
// It holds values only, never solver state: each search builds and owns
// its analyzers.
//
// Two tiers live behind one size bound:
//
//   - fitness: GA objective values keyed by (scope, genome bits), where
//     the scope hashes the search phase, nest IR, cache geometry and
//     sample fingerprint. A hit replays a finished evaluation from an
//     earlier search.
//   - stats: finalized per-tile cachesim.Stats keyed by (nest, geometry,
//     sample, iteration space), recalling the full classification
//     breakdown for a tile that was already finalized.
//
// Both keys include the sample fingerprint, which the search seed and
// sample size draw, so only searches with the same seed and sample size
// share entries.
//
// Determinism contract: a fitness or stats value is a pure function of
// its key — the sampled-miss objective depends only on the nest content,
// cache geometry, sample set and candidate genome — so recalling it is
// result-transparent. Callers must never store values that are not
// (quarantine sentinels, poisoned +Inf results); the cache itself only
// stores and recalls.
//
// Eviction is per-shard LRU (lru.Cache) with a fixed bound, so one insert
// evicts at most one entry under the shard mutex.
package evalcache

import (
	"hash/maphash"
	"sync/atomic"

	"repro/internal/cachesim"
	"repro/internal/lru"
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
)

// Cache is the shared evaluation cache. The zero value is not usable;
// construct with New. A nil *Cache is the canonical "disabled" state and
// is what Options.SharedCache left unset means.
type Cache struct {
	// shards hold float64 (fitness) or cachesim.Stats (stats) values.
	shards []*lru.Cache[string, any]
	seed   maphash.Seed
	obs    telemetry.Recorder

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// New builds a cache from cfg, applying defaults for zero values.
func New(cfg Config) *Cache {
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	perShard := (maxEntries + numShards - 1) / numShards
	c := &Cache{
		shards: make([]*lru.Cache[string, any], numShards),
		seed:   maphash.MakeSeed(),
		obs:    cfg.Observer,
	}
	for i := range c.shards {
		c.shards[i] = lru.New[string, any](perShard)
	}
	return c
}

func (c *Cache) shardOf(key string) *lru.Cache[string, any] {
	return c.shards[maphash.String(c.seed, key)&(numShards-1)]
}

// get looks key up in its shard and refreshes recency on a hit.
func (c *Cache) get(key, tier string) (any, bool) {
	v, ok := c.shardOf(key).Get(key)
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
	if !c.shardOf(key).Put(key, val) {
		return
	}
	c.evictions.Add(1)
	if c.obs != nil {
		c.obs.Event(telemetry.EvalCacheEvict{})
		c.obs.Add(telemetry.Counters{EvalCacheEvictions: 1})
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

// Len reports the live fitness + stats entry count across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		n += s.Len()
	}
	return n
}

// Metrics is a point-in-time accounting snapshot.
type Metrics struct {
	// Hits and Misses count lookups across both tiers (fitness and
	// stats); Evictions counts entries dropped by the size bound.
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
