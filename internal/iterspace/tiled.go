package iterspace

import "math/rand/v2"

// Tiled is the iteration space of a fully tiled rectangular nest: every
// original loop d is strip-mined with tile size Tile[d] and the tile loops
// are interchanged outward, giving the classic form
//
//	do ii_d = Lo_d, Hi_d, T_d
//	  ...
//	    do i_d = ii_d, min(ii_d+T_d-1, Hi_d)
//
// A point has 2k coordinates: the k tile-loop values followed by the k
// element-loop values. Tile[d] == extent(d) leaves dimension d effectively
// untiled (a single tile), and Tile[d] == 1 makes ii_d track i_d.
type Tiled struct {
	Box  *Box
	Tile []int64
}

// NewTiled builds a tiled space over box with the given tile sizes. It
// panics on malformed tile vectors (they come from validated genomes).
func NewTiled(box *Box, tile []int64) *Tiled {
	if len(tile) != len(box.Lo) {
		panic("iterspace: tile rank mismatch")
	}
	for d, t := range tile {
		if t < 1 || t > box.Extent(d) {
			panic("iterspace: tile size out of range")
		}
	}
	return &Tiled{Box: box, Tile: append([]int64(nil), tile...)}
}

func (t *Tiled) k() int { return len(t.Box.Lo) }

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
	for d := 0; d < k; d++ {
		p[d] = t.Box.Lo[d]
		p[k+d] = t.Box.Lo[d]
	}
	return true
}

// Next implements Space.
func (t *Tiled) Next(p []int64) bool {
	k := t.k()
	// Element loops, innermost first.
	for d := k - 1; d >= 0; d-- {
		if p[k+d] < t.tileEnd(d, p[d]) {
			p[k+d]++
			return true
		}
		p[k+d] = p[d] // reset to tile start
	}
	// Tile loops, innermost first.
	for d := k - 1; d >= 0; d-- {
		if p[d]+t.Tile[d] <= t.Box.Hi[d] {
			p[d] += t.Tile[d]
			p[k+d] = p[d]
			return true
		}
		p[d] = t.Box.Lo[d]
		p[k+d] = p[d]
	}
	return false
}

// Prev implements Space.
func (t *Tiled) Prev(p []int64) bool {
	k := t.k()
	for d := k - 1; d >= 0; d-- {
		if p[k+d] > p[d] {
			p[k+d]--
			return true
		}
		p[k+d] = t.tileEnd(d, p[d]) // reset to tile end
	}
	for d := k - 1; d >= 0; d-- {
		if p[d] > t.Box.Lo[d] {
			p[d] -= t.Tile[d]
			// Inner tile loops wrap to their last tile; element loops
			// to the end of their (possibly new) tile.
			for e := d + 1; e < k; e++ {
				p[e] = t.lastTileStart(e)
			}
			for e := d; e < k; e++ {
				p[k+e] = t.tileEnd(e, p[e])
			}
			return true
		}
		p[d] = t.lastTileStart(d)
		p[k+d] = t.tileEnd(d, p[d])
	}
	return false
}

// InnerFloor implements Space: the innermost element loop runs down to
// the start of its tile, the innermost tile coordinate.
func (t *Tiled) InnerFloor(p []int64) int64 { return p[t.k()-1] }

// Contains implements Space.
func (t *Tiled) Contains(p []int64) bool {
	k := t.k()
	for d := 0; d < k; d++ {
		ii, i := p[d], p[k+d]
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
		p[d] = t.tileStart(d, v)
	}
}

// ToOriginal implements Space: the element-loop coordinates.
func (t *Tiled) ToOriginal(p, orig []int64) { copy(orig, p[t.k():]) }

// OrigView implements Space.
func (t *Tiled) OrigView(p []int64) []int64 { return p[t.k():] }

// OrigMap implements Space: tile coordinates carry no original variable;
// element coordinate k+d carries dimension d.
func (t *Tiled) OrigMap() []int {
	k := t.k()
	m := make([]int, 2*k)
	for i := 0; i < k; i++ {
		m[i] = -1
		m[k+i] = i
	}
	return m
}

// FromOriginal implements Space.
func (t *Tiled) FromOriginal(orig, p []int64) {
	k := t.k()
	for d := 0; d < k; d++ {
		p[k+d] = orig[d]
		p[d] = t.tileStart(d, orig[d])
	}
}

// MinWithPinned implements Space. Because tile coordinates are monotone in
// the element coordinates and the candidate set is a product set, the
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
		p[d] = t.tileStart(d, v)
	}
	return true
}
