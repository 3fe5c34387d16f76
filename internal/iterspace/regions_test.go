package iterspace

import (
	"math/rand/v2"
	"testing"
)

// TestRegionsPaperFigure2 reproduces the decomposition of Figure 2(b):
// a 7-iteration loop tiled by 3 splits into a full region (two tiles, 6
// points) and a remainder region (1 point).
func TestRegionsPaperFigure2(t *testing.T) {
	s := NewTiled(NewBox([]int64{1}, []int64{7}), []int64{3})
	regs := s.Regions()
	if len(regs) != 2 {
		t.Fatalf("regions = %d, want 2", len(regs))
	}
	if regs[0].Remainder[0] || regs[0].Points != 6 || regs[0].TileLo[0] != 1 || regs[0].TileHi[0] != 4 {
		t.Fatalf("full region = %+v", regs[0])
	}
	if !regs[1].Remainder[0] || regs[1].Points != 1 || regs[1].TileLo[0] != 7 {
		t.Fatalf("remainder region = %+v", regs[1])
	}
	if s.NumRegions() != 2 {
		t.Fatalf("NumRegions = %d", s.NumRegions())
	}
}

// TestRegions2n checks the paper's 2ⁿ claim: tiling n ragged dimensions
// yields 2ⁿ convex regions.
func TestRegions2n(t *testing.T) {
	// 3 dims, all ragged (extent 7, tile 3).
	s := NewTiled(NewBox([]int64{1, 1, 1}, []int64{7, 7, 7}), []int64{3, 3, 3})
	if got := len(s.Regions()); got != 8 {
		t.Fatalf("regions = %d, want 8", got)
	}
	// One even dim (extent 6, tile 3) drops a factor of two.
	s2 := NewTiled(NewBox([]int64{1, 1, 1}, []int64{7, 6, 7}), []int64{3, 3, 3})
	if got := len(s2.Regions()); got != 4 {
		t.Fatalf("regions = %d, want 4", got)
	}
	// Tile == extent: single region.
	s3 := NewTiled(NewBox([]int64{1, 1}, []int64{5, 5}), []int64{5, 5})
	if got := len(s3.Regions()); got != 1 {
		t.Fatalf("regions = %d, want 1", got)
	}
}

func TestRegionPointsSumToTotal(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 29))
	for iter := 0; iter < 100; iter++ {
		k := 1 + int(r.Int64N(3))
		lo := make([]int64, k)
		hi := make([]int64, k)
		tile := make([]int64, k)
		for d := 0; d < k; d++ {
			lo[d] = 1
			hi[d] = 1 + r.Int64N(12)
			tile[d] = 1 + r.Int64N(hi[d])
		}
		s := NewTiled(NewBox(lo, hi), tile)
		var sum uint64
		for _, reg := range s.Regions() {
			sum += reg.Points
		}
		if sum != s.Count() {
			t.Fatalf("iter %d: region points sum %d != total %d (tiles %v extents %v)",
				iter, sum, s.Count(), tile, hi)
		}
		if len(s.Regions()) != s.NumRegions() {
			t.Fatalf("iter %d: NumRegions disagrees with Regions()", iter)
		}
	}
}

// TestRegionOfPartitions checks that RegionOf assigns every point to
// exactly one region and that per-region point counts match, at the
// identity tile-loop order and with the tile loops interchanged.
func TestRegionOfPartitions(t *testing.T) {
	box := NewBox([]int64{1, 1}, []int64{7, 5})
	for _, s := range []*Tiled{
		NewTiled(box, []int64{3, 2}),
		NewPermutedTiled(box, []int64{3, 2}, []int{1, 0}),
	} {
		regs := s.Regions()
		counts := make([]uint64, len(regs))
		for _, p := range enumerate(s) {
			idx := s.RegionOf(p)
			if idx < 0 || idx >= len(regs) {
				t.Fatalf("order %v: RegionOf(%v) = %d", s.Order(), p, idx)
			}
			counts[idx]++
			// The point's tile coordinates must be within the region bounds.
			for pos, d := range s.Order() {
				if p[pos] < regs[idx].TileLo[d] || p[pos] > regs[idx].TileHi[d] {
					t.Fatalf("order %v: point %v assigned region %d with tile bounds [%d,%d] in dim %d",
						s.Order(), p, idx, regs[idx].TileLo[d], regs[idx].TileHi[d], d)
				}
			}
		}
		for i, reg := range regs {
			if counts[i] != reg.Points {
				t.Fatalf("order %v: region %d observed %d points, declared %d", s.Order(), i, counts[i], reg.Points)
			}
		}
		if s.RegionOf([]int64{2, 1, 2, 1}) != -1 {
			t.Fatalf("order %v: invalid point assigned a region", s.Order())
		}
	}
}
