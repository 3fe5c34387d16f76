package iterspace

import "math/rand/v2"

// Tiled is the iteration space of a fully tiled rectangular nest: every
// original loop d is strip-mined with tile size Tile[d] and the tile loops
// are interchanged outward into a tile-loop order — "tiling = strip-mining
// + loop interchange" (§3). At the identity order this is the classic form
//
//	do ii_d = Lo_d, Hi_d, T_d
//	  ...
//	    do i_d = ii_d, min(ii_d+T_d-1, Hi_d)
//
// A point has 2k coordinates in EXECUTION order: the k tile-loop values,
// position p holding the tile loop of original dimension Order()[p],
// followed by the k element-loop values in original order. Lexicographic
// coordinate order is therefore execution order. The element loops always
// stay innermost in original order, so every order is legal for the fully
// permutable nests the paper analyses. Tile[d] == extent(d) leaves
// dimension d effectively untiled (a single tile), and Tile[d] == 1 makes
// ii_d track i_d.
type Tiled struct {
	Box  *Box
	Tile []int64 // indexed by original dimension
	// The order stays out of the exported fields, so a space marshals to
	// JSON as its box and tile vector alone.
	order []int // order[p] = original dimension at tile position p
	inv   []int // inv[d] = tile position of original dimension d
}

// NewTiled builds a tiled space over box with the given tile sizes and the
// identity tile-loop order. It panics on malformed tile vectors (they come
// from validated genomes).
func NewTiled(box *Box, tile []int64) *Tiled {
	order := make([]int, len(box.Lo))
	for d := range order {
		order[d] = d
	}
	return NewPermutedTiled(box, tile, order)
}

// NewPermutedTiled builds a tiled space whose tile loops run in the given
// order. Order must be a permutation of 0..k-1; tile is indexed by
// original dimension. It panics on malformed input (inputs come from
// validated genomes).
func NewPermutedTiled(box *Box, tile []int64, order []int) *Tiled {
	k := len(box.Lo)
	if len(tile) != k || len(order) != k {
		panic("iterspace: tiling rank mismatch")
	}
	inv := make([]int, k)
	seen := make([]bool, k)
	for p, d := range order {
		if d < 0 || d >= k || seen[d] {
			panic("iterspace: order is not a permutation")
		}
		seen[d] = true
		inv[d] = p
	}
	for d, t := range tile {
		if t < 1 || t > box.Extent(d) {
			panic("iterspace: tile size out of range")
		}
	}
	return &Tiled{
		Box:   box,
		Tile:  append([]int64(nil), tile...),
		order: append([]int(nil), order...),
		inv:   inv,
	}
}

// Order returns a copy of the tile-loop order: Order()[p] is the original
// dimension whose tile loop sits at position p, outermost first.
func (t *Tiled) Order() []int { return append([]int(nil), t.order...) }

func (t *Tiled) k() int { return len(t.inv) }

// NumCoords implements Space.
func (t *Tiled) NumCoords() int { return 2 * t.k() }

// OrigDims implements Space.
func (t *Tiled) OrigDims() int { return t.k() }

// tileStart returns the tile-loop value covering original value v in dim d.
func (t *Tiled) tileStart(d int, v int64) int64 {
	lo := t.Box.Lo[d]
	return lo + (v-lo)/t.Tile[d]*t.Tile[d]
}

// lastTileStart returns the largest tile-loop value of dimension d.
func (t *Tiled) lastTileStart(d int) int64 {
	return t.tileStart(d, t.Box.Hi[d])
}

// tileEnd returns the last element-loop value of the tile starting at ii in
// dimension d: min(ii+T-1, Hi).
func (t *Tiled) tileEnd(d int, ii int64) int64 {
	end := ii + t.Tile[d] - 1
	if hi := t.Box.Hi[d]; end > hi {
		end = hi
	}
	return end
}

// First implements Space.
func (t *Tiled) First(p []int64) bool {
	k := t.k()
	for pos, d := range t.order {
		p[pos] = t.Box.Lo[d]
	}
	copy(p[k:], t.Box.Lo)
	return true
}

// Next implements Space.
func (t *Tiled) Next(p []int64) bool {
	inv := t.inv // a local lets the compiler drop the checks on inv[d]
	k := len(inv)
	// Element loops, innermost first.
	for d := k - 1; d >= 0; d-- {
		ii := p[inv[d]]
		if p[k+d] < t.tileEnd(d, ii) {
			p[k+d]++
			return true
		}
		p[k+d] = ii // reset to tile start
	}
	// Tile loops, innermost position first.
	for pos := k - 1; pos >= 0; pos-- {
		d := t.order[pos]
		if p[pos]+t.Tile[d] <= t.Box.Hi[d] {
			p[pos] += t.Tile[d]
			p[k+d] = p[pos]
			return true
		}
		p[pos] = t.Box.Lo[d]
		p[k+d] = p[pos]
	}
	return false
}

// Prev implements Space. Every element loop has wrapped to the end of its
// tile before a tile loop moves, so only the element loops of the tiles
// that moved need a new end.
func (t *Tiled) Prev(p []int64) bool {
	inv := t.inv // a local lets the compiler drop the checks on inv[d]
	k := len(inv)
	for d := k - 1; d >= 0; d-- {
		ii := p[inv[d]]
		if p[k+d] > ii {
			p[k+d]--
			return true
		}
		p[k+d] = t.tileEnd(d, ii) // reset to tile end
	}
	// Tile loops, innermost position first; inner ones wrap to their
	// last tile.
	for pos := k - 1; pos >= 0; pos-- {
		d := t.order[pos]
		if p[pos] > t.Box.Lo[d] {
			p[pos] -= t.Tile[d]
			p[k+d] = t.tileEnd(d, p[pos])
			return true
		}
		p[pos] = t.lastTileStart(d)
		p[k+d] = t.tileEnd(d, p[pos])
	}
	return false
}

// InnerFloor implements Space: the innermost element loop (original
// dimension k-1) runs down to its tile start, wherever the tile order put
// that tile coordinate.
func (t *Tiled) InnerFloor(p []int64) int64 { return p[t.inv[t.k()-1]] }

// Contains implements Space.
func (t *Tiled) Contains(p []int64) bool {
	k := t.k()
	for pos, d := range t.order {
		ii, i := p[pos], p[k+d]
		if ii < t.Box.Lo[d] || ii > t.Box.Hi[d] || (ii-t.Box.Lo[d])%t.Tile[d] != 0 {
			return false
		}
		if i < ii || i > t.tileEnd(d, ii) {
			return false
		}
	}
	return true
}

// Count implements Space. Tiling preserves the point count.
func (t *Tiled) Count() uint64 { return t.Box.Count() }

// Sample implements Space: draw a uniform original point and lift it.
func (t *Tiled) Sample(r *rand.Rand, p []int64) {
	k := t.k()
	for d := 0; d < k; d++ {
		v := t.Box.Lo[d] + r.Int64N(t.Box.Extent(d))
		p[k+d] = v
		p[t.inv[d]] = t.tileStart(d, v)
	}
}

// ToOriginal implements Space: the element-loop coordinates.
func (t *Tiled) ToOriginal(p, orig []int64) { copy(orig, p[t.k():]) }

// OrigView implements Space.
func (t *Tiled) OrigView(p []int64) []int64 { return p[t.k():] }

// OrigDim implements Space: tile coordinates carry no original variable;
// element coordinate k+d carries dimension d.
func (t *Tiled) OrigDim(c int) int {
	if c < t.k() {
		return -1
	}
	return c - t.k()
}

// FromOriginal implements Space.
func (t *Tiled) FromOriginal(orig, p []int64) {
	k := t.k()
	for d := 0; d < k; d++ {
		p[k+d] = orig[d]
		p[t.inv[d]] = t.tileStart(d, orig[d])
	}
}

// MinWithPinned implements Space. Because every coordinate is monotone in
// its original variable and the candidate set is a product set, the
// coordinate-wise minimum of the original point is the lexicographic
// minimum of the lifted point.
func (t *Tiled) MinWithPinned(pinned, p []int64) bool {
	k := t.k()
	for d := 0; d < k; d++ {
		var v int64
		switch {
		case pinned[d] == Free:
			v = t.Box.Lo[d]
		case pinned[d] < t.Box.Lo[d] || pinned[d] > t.Box.Hi[d]:
			return false
		default:
			v = pinned[d]
		}
		p[k+d] = v
		p[t.inv[d]] = t.tileStart(d, v)
	}
	return true
}
