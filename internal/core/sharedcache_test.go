package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/evalcache"
	"repro/internal/ga"
	"repro/internal/iterspace"
	"repro/internal/telemetry"
)

// sharedOpt is islandOpt plus a shared evaluation cache.
func sharedOpt(seed uint64, islands int, c *evalcache.Cache) Options {
	opt := islandOpt(seed, islands)
	opt.SharedCache = c
	return opt
}

// requireSameTiling asserts two tiling results are bit-identical in every
// deterministic field.
func requireSameTiling(t *testing.T, label string, a, b *TilingResult) {
	t.Helper()
	if !reflect.DeepEqual(a.Tile, b.Tile) || !reflect.DeepEqual(a.GA, b.GA) ||
		a.Before != b.Before || a.After != b.After || a.Stopped != b.Stopped {
		t.Fatalf("%s diverged:\ntile %v vs %v\nstopped %v vs %v\nGA %+v vs %+v",
			label, a.Tile, b.Tile, a.Stopped, b.Stopped, a.GA, b.GA)
	}
}

// TestSharedCacheIslandDeterminism is the tentpole invariant: for a fixed
// seed, a search returns bit-identical results with the shared cache
// disabled, cold, and pre-warmed — at one island and at four (demes
// racing each other into the shared tier must not perturb trajectories).
func TestSharedCacheIslandDeterminism(t *testing.T) {
	nest := transpose(64)
	for _, islands := range []int{1, 4} {
		disabled, err := OptimizeTiling(context.Background(), nest, islandOpt(17, islands))
		if err != nil {
			t.Fatalf("islands=%d disabled: %v", islands, err)
		}
		requireValidTiling(t, disabled, nest.Depth())

		c := evalcache.New(evalcache.Config{MaxEntries: 1 << 14})
		cold, err := OptimizeTiling(context.Background(), nest, sharedOpt(17, islands, c))
		if err != nil {
			t.Fatalf("islands=%d cold: %v", islands, err)
		}
		requireSameTiling(t, "cold cache vs disabled", disabled, cold)

		warmStart := c.Metrics()
		warm, err := OptimizeTiling(context.Background(), nest, sharedOpt(17, islands, c))
		if err != nil {
			t.Fatalf("islands=%d warm: %v", islands, err)
		}
		requireSameTiling(t, "warm cache vs disabled", disabled, warm)
		if m := c.Metrics(); m.Hits <= warmStart.Hits {
			t.Fatalf("islands=%d: warm run recorded no shared-cache hits (%+v)", islands, m)
		}
		// The budget trajectory must be identical too: a shared hit spends
		// the budget exactly like the evaluation it replaced.
		if disabled.GA.Evaluations != warm.GA.Evaluations {
			t.Fatalf("islands=%d: warm run spent %d evaluations, disabled %d",
				islands, warm.GA.Evaluations, disabled.GA.Evaluations)
		}
	}
}

// TestSharedCacheIslandScopeIsolation: warming the cache with other seeds
// and another search must not leak values into an unrelated search. No
// key carries the search's label: the content keys (nest, geometry,
// sample, iteration space) isolate them.
func TestSharedCacheIslandScopeIsolation(t *testing.T) {
	nest := transpose(64)
	c := evalcache.New(evalcache.Config{MaxEntries: 1 << 14})

	// Warm with the plain tiling search at two seeds and a padding search.
	for _, seed := range []uint64{17, 99} {
		if _, err := OptimizeTiling(context.Background(), nest, sharedOpt(seed, 1, c)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OptimizePadding(context.Background(), nest, sharedOpt(17, 1, c)); err != nil {
		t.Fatal(err)
	}

	// The order search against the polluted cache must match its
	// cache-disabled baseline exactly.
	base, err := OptimizeTilingOrder(context.Background(), nest, islandOpt(17, 2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := OptimizeTilingOrder(context.Background(), nest, sharedOpt(17, 2, c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Tile, got.Tile) || !reflect.DeepEqual(base.Order, got.Order) ||
		!reflect.DeepEqual(base.GA, got.GA) || base.After != got.After {
		t.Fatalf("order search perturbed by foreign cache entries:\ntile %v/%v vs %v/%v\nGA %+v vs %+v",
			base.Tile, base.Order, got.Tile, got.Order, base.GA, got.GA)
	}

	// And a repeat of the warmed tiling search still matches its own
	// disabled baseline.
	disabled, err := OptimizeTiling(context.Background(), nest, islandOpt(99, 1))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := OptimizeTiling(context.Background(), nest, sharedOpt(99, 1, c))
	if err != nil {
		t.Fatal(err)
	}
	requireSameTiling(t, "seed-99 warm vs disabled", disabled, warm)
}

// TestSharedCacheCoversEverySearch: the stats tier is the one shared
// store of evaluation work, so every search recalls through it. Each
// search runs with no cache, a cold cache and the same cache warm. The
// three results are identical. With the cold cache the padding, joint and
// multi-level searches already classify fewer points than with none
// (distinct genomes decode to one padded nest; finalisation recalls each
// level's statistics), and no run classifies more. The warm run
// classifies no point at all, also where island forks score fidelity
// rungs.
func TestSharedCacheCoversEverySearch(t *testing.T) {
	mm, add := kernelNest(t, "MM", 40), kernelNest(t, "ADD", 0)
	levels := []Level{{Cache: cache.DM8K, MissPenalty: 10}, {Cache: cache.DM32K, MissPenalty: 100}}
	ctx := context.Background()
	tiling := func(o Options) (any, error) { return OptimizeTiling(ctx, mm, o) }
	for _, tc := range []struct {
		name    string
		islands int
		rungs   int  // fidelity rungs (0 = off)
		fewer   bool // the cold cache must recall within the search
		run     func(Options) (any, error)
	}{
		{"padding", 0, 0, true, func(o Options) (any, error) { return OptimizePadding(ctx, add, o) }},
		{"joint", 0, 0, true, func(o Options) (any, error) { return OptimizeJoint(ctx, add, o) }},
		{"multilevel", 0, 0, true, func(o Options) (any, error) { return OptimizeTilingMultiLevel(ctx, mm, levels, o) }},
		{"tiling-islands2", 2, 0, false, tiling},
		{"tiling-fidelity3-islands2", 2, 3, false, tiling},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := evalcache.New(evalcache.Config{})
			var results []string
			var points []uint64
			for _, shared := range []*evalcache.Cache{nil, c, c} {
				var cap telemetry.Capture
				res, err := tc.run(Options{Cache: cache.DM8K, Seed: 7, SamplePoints: 64, Workers: 1,
					Islands: tc.islands, Fidelity: ga.Fidelity{Rungs: tc.rungs}, Observer: &cap, SharedCache: shared})
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, string(b))
				points = append(points, cap.Counters().SampledPoints)
			}
			none, cold, warm := points[0], points[1], points[2]
			t.Logf("sampled points: no cache %d, cold %d, warm %d", none, cold, warm)
			if results[1] != results[0] || results[2] != results[0] {
				t.Fatalf("results differ:\nno cache: %s\ncold:     %s\nwarm:     %s", results[0], results[1], results[2])
			}
			if cold > none || (tc.fewer && cold == none) {
				t.Errorf("cold cache classified %d points, no cache %d", cold, none)
			}
			if warm != 0 {
				t.Errorf("warm cache classified %d points, want 0", warm)
			}
		})
	}
}

// TestSpaceKeyEncodesTileAndOrder pins the shared stats tier's key for
// tiled spaces: the identity order keys alike however the space was
// built, and a change of order or of one tile size keys apart, so one
// loop order's miss counts are never served for another.
func TestSpaceKeyEncodesTileAndOrder(t *testing.T) {
	box := iterspace.NewBox([]int64{1, 1, 1}, []int64{40, 40, 40})
	tile := []int64{8, 4, 40}
	key := func(s iterspace.Space) string {
		t.Helper()
		k, ok := spaceKey(s)
		if !ok {
			t.Fatalf("%T has no space key", s)
		}
		return k
	}
	base := key(iterspace.NewTiled(box, tile))
	if got := key(iterspace.NewPermutedTiled(box, tile, []int{0, 1, 2})); got != base {
		t.Fatalf("identity order keys %q, NewTiled keys %q", got, base)
	}
	for name, s := range map[string]iterspace.Space{
		"order": iterspace.NewPermutedTiled(box, tile, []int{1, 0, 2}),
		"tile":  iterspace.NewTiled(box, []int64{8, 5, 40}),
		"box":   box,
	} {
		if got := key(s); got == base {
			t.Errorf("%s change kept the key %q", name, got)
		}
	}
}
