package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/sampling"
)

// TestTileObjectiveDeterministicAndBounded: the exposed objective is
// deterministic for a seed and poisons invalid candidates instead of
// failing.
func TestTileObjective(t *testing.T) {
	nest := transpose(32)
	opt := Options{Cache: cache.Config{Size: 1024, LineSize: 32, Assoc: 1}, Seed: 8}
	obj, box, err := TileObjective(nest, opt)
	if err != nil {
		t.Fatal(err)
	}
	if box.Extent(0) != 32 || box.Extent(1) != 32 {
		t.Fatalf("box extents wrong")
	}
	a := obj([]int64{8, 8})
	b := obj([]int64{8, 8})
	if a != b {
		t.Fatalf("objective not deterministic: %v vs %v", a, b)
	}
	full := obj([]int64{32, 32})
	if full < a {
		t.Fatalf("untiled (%v) better than 8x8 (%v) on this transpose", full, a)
	}
	// Out-of-range candidates are clamped, not fatal.
	if got := obj([]int64{0, 99}); got < 0 {
		t.Fatalf("clamped objective = %v", got)
	}
	// Non-rectangular nest is rejected.
	bad := transpose(8)
	bad.Loops[0].Step = 2
	if _, _, err := TileObjective(bad, opt); err == nil {
		t.Fatal("non-rectangular accepted")
	}
}

// TestTileObjectiveStalledScoresWorst: a tile whose evaluation fails,
// here stalled by a one-nanosecond watchdog, scores one above the sample's
// accesses, worse than every tile an evaluation scored, never the
// near-best count of a failed evaluation's partial statistics.
func TestTileObjectiveStalledScoresWorst(t *testing.T) {
	nest := kernelNest(t, "MM", 40)
	opt := Options{Cache: cache.DM8K, Seed: 7}
	clean, _, err := TileObjective(nest, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.StallTimeout = time.Nanosecond
	stalled, _, err := TileObjective(nest, opt)
	if err != nil {
		t.Fatal(err)
	}
	failed := float64(sampling.PaperSampleSize*len(nest.Refs) + 1)
	for _, tile := range [][]int64{{40, 40, 40}, {1, 1, 1}, {8, 8, 8}, {40, 1, 1}} {
		want := clean(tile)
		if want >= failed {
			t.Fatalf("tile %v scored %v unstalled, not below the failure value %v", tile, want, failed)
		}
		if got := stalled(tile); got != want && got != failed {
			t.Errorf("tile %v scored %v under the stall watchdog, want %v or the failure value %v", tile, got, want, failed)
		}
	}
}

// TestBestInterchangeIdentityCovered: on a symmetric kernel the identity
// order must be among the evaluated ones (best ratio ≤ untiled ratio).
func TestBestInterchange(t *testing.T) {
	nest := transpose(48)
	opt := Options{Cache: cache.Config{Size: 1024, LineSize: 32, Assoc: 1}, Seed: 4}
	best, order, err := BestInterchange(context.Background(), nest, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	obj, _, err := TileObjective(nest, opt)
	if err != nil {
		t.Fatal(err)
	}
	accesses := float64(164 * len(nest.Refs))
	untiled := obj([]int64{48, 48}) / accesses
	if best > untiled+1e-9 {
		t.Fatalf("best interchange %.3f worse than identity %.3f", best, untiled)
	}
	bad := transpose(8)
	bad.Loops[0].Step = 2
	if _, _, err := BestInterchange(context.Background(), bad, opt); err == nil {
		t.Fatal("non-rectangular accepted")
	}
}

// TestOrderedTilingRejectsBadNest covers the error paths of the order and
// multi-level searches.
func TestOrderedAndMultiLevelErrors(t *testing.T) {
	bad := transpose(8)
	bad.Loops[0].Step = 2
	if _, err := OptimizeTilingOrder(context.Background(), bad, Options{Cache: cache.DM8K}); err == nil {
		t.Fatal("order search accepted non-rectangular nest")
	}
	if _, err := OptimizeJoint(context.Background(), bad, Options{Cache: cache.DM8K}); err == nil {
		t.Fatal("joint search accepted non-rectangular nest")
	}
	if _, err := OptimizePaddingThenTiling(context.Background(), bad, Options{Cache: cache.DM8K}); err == nil {
		t.Fatal("sequential search accepted non-rectangular nest")
	}
}
