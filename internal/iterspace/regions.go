package iterspace

// Region is one convex region of a tiled iteration space (§2.4 of the
// paper). Tiling a loop whose extent is not a multiple of the tile size
// splits the space into a "full tiles" part and a "remainder tile" part per
// such dimension; the tiled space is the union of up to 2ⁿ convex regions,
// one per combination.
type Region struct {
	// Remainder[d] reports whether this region takes the remainder tile
	// of original dimension d.
	Remainder []bool
	// TileLo[d] and TileHi[d] bound the tile-loop value ii_d within the
	// region (both inclusive; ii_d steps by Tile[d]).
	TileLo, TileHi []int64
	// Points is the number of iteration points in the region.
	Points uint64
}

// Regions decomposes the tiled space into its convex regions, in a fixed
// order (full-tiles combination first). Dimensions whose extent divides
// evenly contribute only a full region, so a space with n ragged dimensions
// yields 2ⁿ regions.
func (t *Tiled) Regions() []Region {
	k := t.k()
	type dimInfo struct {
		ragged             bool
		fullLo, fullHi     int64 // ii range of full tiles
		remStart           int64 // ii of the remainder tile
		fullPts, remainPts uint64
	}
	dims := make([]dimInfo, k)
	for d := 0; d < k; d++ {
		extent := t.Box.Extent(d)
		tile := t.Tile[d]
		full := extent / tile
		rem := extent % tile
		di := dimInfo{
			ragged:    rem != 0,
			fullLo:    t.Box.Lo[d],
			fullHi:    t.Box.Lo[d] + (full-1)*tile,
			remStart:  t.Box.Lo[d] + full*tile,
			fullPts:   uint64(full * tile),
			remainPts: uint64(rem),
		}
		dims[d] = di
	}
	regions := []Region{}
	var build func(d int, cur Region, pts uint64)
	build = func(d int, cur Region, pts uint64) {
		if d == k {
			cur.Points = pts
			// Deep-copy the per-dimension slices.
			cur.Remainder = append([]bool(nil), cur.Remainder...)
			cur.TileLo = append([]int64(nil), cur.TileLo...)
			cur.TileHi = append([]int64(nil), cur.TileHi...)
			regions = append(regions, cur)
			return
		}
		di := dims[d]
		if di.fullPts > 0 {
			cur.Remainder = append(cur.Remainder, false)
			cur.TileLo = append(cur.TileLo, di.fullLo)
			cur.TileHi = append(cur.TileHi, di.fullHi)
			build(d+1, cur, pts*di.fullPts)
			cur.Remainder = cur.Remainder[:d]
			cur.TileLo = cur.TileLo[:d]
			cur.TileHi = cur.TileHi[:d]
		}
		if di.ragged {
			cur.Remainder = append(cur.Remainder, true)
			cur.TileLo = append(cur.TileLo, di.remStart)
			cur.TileHi = append(cur.TileHi, di.remStart)
			build(d+1, cur, pts*di.remainPts)
			cur.Remainder = cur.Remainder[:d]
			cur.TileLo = cur.TileLo[:d]
			cur.TileHi = cur.TileHi[:d]
		}
	}
	build(0, Region{}, 1)
	return regions
}

// RegionOf returns the index (into Regions()) of the region containing
// point p, or -1 if p is not in the space.
func (t *Tiled) RegionOf(p []int64) int {
	if !t.Contains(p) {
		return -1
	}
	k := t.k()
	idx := 0
	for d := 0; d < k; d++ {
		extent := t.Box.Extent(d)
		tile := t.Tile[d]
		rem := extent % tile
		full := extent / tile
		inRemainder := rem != 0 && p[t.inv[d]] == t.Box.Lo[d]+full*tile
		// Region enumeration order: full branch before remainder branch
		// per dimension, so the index is a mixed-radix number over ragged
		// dimensions.
		if rem != 0 {
			idx *= 2
			if inRemainder {
				idx++
			}
		}
	}
	return idx
}

// NumRegions returns the number of convex regions of the tiled space
// without materialising them: 2ⁿ for n ragged dimensions (dimensions with
// no full tile contribute only the remainder region and halve the count).
func (t *Tiled) NumRegions() int {
	n := 1
	for d := 0; d < t.k(); d++ {
		extent := t.Box.Extent(d)
		tile := t.Tile[d]
		if extent%tile != 0 && extent/tile > 0 {
			n *= 2
		}
	}
	return n
}
