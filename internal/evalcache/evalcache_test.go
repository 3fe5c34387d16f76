package evalcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/telemetry"
)

// nest builds a catalog kernel instance for key tests.
func nest(t *testing.T, name string, size int64) *ir.Nest {
	t.Helper()
	k, ok := kernels.Get(name)
	if !ok {
		t.Fatalf("kernel %s not in catalog", name)
	}
	n, err := k.Instance(size)
	if err != nil {
		t.Fatalf("instance %s(%d): %v", name, size, err)
	}
	return n
}

func TestFitnessRoundTrip(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	if _, ok := c.GetFitness("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.PutFitness("k", 3.5)
	v, ok := c.GetFitness("k")
	if !ok || v != 3.5 {
		t.Fatalf("GetFitness = %v, %v; want 3.5, true", v, ok)
	}
	// Fitness and stats tiers must not alias even with equal keys.
	if _, ok := c.GetStats("k"); ok {
		t.Fatal("stats tier aliased a fitness entry")
	}
	c.PutStats("k", cachesim.Stats{Accesses: 7, Replacement: 2})
	st, ok := c.GetStats("k")
	if !ok || st.Accesses != 7 || st.Replacement != 2 {
		t.Fatalf("GetStats = %+v, %v", st, ok)
	}
	if v, _ := c.GetFitness("k"); v != 3.5 {
		t.Fatal("stats put clobbered the fitness entry")
	}
}

func TestEvictionBound(t *testing.T) {
	const max = 128
	c := New(Config{MaxEntries: max})
	for i := 0; i < 10*max; i++ {
		c.PutFitness(fmt.Sprintf("key-%d", i), float64(i))
	}
	// Per-shard bounds round up, so the total bound has at most one
	// slack entry per shard.
	if n := c.Len(); n > max+len(c.shards) {
		t.Fatalf("cache holds %d entries, bound %d (+%d shard slack)", n, max, len(c.shards))
	}
	if m := c.Metrics(); m.Evictions == 0 {
		t.Fatal("no evictions recorded despite 10x overfill")
	}
}

func TestHitAccounting(t *testing.T) {
	cap := &telemetry.Capture{}
	c := New(Config{MaxEntries: 64, Observer: cap})
	c.GetFitness("a") // miss
	c.PutFitness("a", 1)
	c.GetFitness("a") // hit
	c.GetStats("b")   // miss
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 2 {
		t.Fatalf("Metrics = %+v, want 1 hit / 2 misses", m)
	}
	ctr := cap.Counters()
	if ctr.EvalCacheHits != 1 || ctr.EvalCacheMisses != 2 {
		t.Fatalf("telemetry counters = %+v, want 1 hit / 2 misses", ctr)
	}
	hits, misses := 0, 0
	for _, e := range cap.Events() {
		switch e.(type) {
		case telemetry.EvalCacheHit:
			hits++
		case telemetry.EvalCacheMiss:
			misses++
		}
	}
	if hits != 1 || misses != 2 {
		t.Fatalf("events: %d hits / %d misses, want 1 / 2", hits, misses)
	}
}

func TestPutExistingKeyUpdatesInPlace(t *testing.T) {
	c := New(Config{MaxEntries: 64})
	c.PutFitness("k", 1)
	c.PutFitness("k", 2)
	if c.Len() != 1 {
		t.Fatalf("duplicate insert: Len = %d", c.Len())
	}
	if v, _ := c.GetFitness("k"); v != 2 {
		t.Fatalf("GetFitness = %v, want the updated value 2", v)
	}
}

func TestNestKeyDiscriminates(t *testing.T) {
	mm := nest(t, "MM", 64)
	mm2 := nest(t, "MM", 64)
	if NestKey(mm) != NestKey(mm2) {
		t.Fatal("structurally equal nests hash differently")
	}
	if NestKey(mm) == NestKey(nest(t, "MM", 128)) {
		t.Fatal("different problem sizes hash identically")
	}
	if NestKey(mm) == NestKey(nest(t, "ADD", 64)) {
		t.Fatal("different kernels hash identically")
	}
}

func TestConfigKeyAndScopeDiscriminate(t *testing.T) {
	if ConfigKey(cache.DM8K) == ConfigKey(cache.DM32K) {
		t.Fatal("different geometries hash identically")
	}
	if Scope("tiling", "a") == Scope("tiling", "b") {
		t.Fatal("different scope parts hash identically")
	}
	if Scope("a", "bc") == Scope("ab", "c") {
		t.Fatal("scope framing is ambiguous across part boundaries")
	}
}

func TestConcurrentUse(t *testing.T) {
	c := New(Config{MaxEntries: 256})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k-%d", i%64)
				if v, ok := c.GetFitness(key); ok && v != float64(i%64) {
					t.Errorf("key %s recalled %v", key, v)
					return
				}
				c.PutFitness(key, float64(i%64))
				c.PutStats(key, cachesim.Stats{Accesses: uint64(i)})
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 256+len(c.shards) {
		t.Fatalf("bound violated under concurrency: %d", n)
	}
}
