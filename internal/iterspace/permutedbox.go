package iterspace

import "math/rand/v2"

// PermutedBox is a rectangular space traversed with its loops interchanged
// into an arbitrary order — pure loop interchange, the classic
// computation-reordering transform tiling builds upon. Order[p] is the
// original dimension iterated at nesting position p.
//
// Coordinates are stored in EXECUTION order (position-major), so
// lexicographic coordinate order is execution order.
type PermutedBox struct {
	Box     *Box
	Order   []int
	inv     []int // inv[d] = position of original dimension d
	scratch []int64
}

// NewPermutedBox builds the space; order must be a permutation of 0..k-1.
func NewPermutedBox(box *Box, order []int) *PermutedBox {
	k := len(box.Lo)
	if len(order) != k {
		panic("iterspace: order rank mismatch")
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
	return &PermutedBox{Box: box, Order: append([]int(nil), order...), inv: inv}
}

// NumCoords implements Space.
func (b *PermutedBox) NumCoords() int { return len(b.Box.Lo) }

// OrigDims implements Space.
func (b *PermutedBox) OrigDims() int { return len(b.Box.Lo) }

// First implements Space.
func (b *PermutedBox) First(p []int64) bool {
	for pos, d := range b.Order {
		p[pos] = b.Box.Lo[d]
	}
	return true
}

// Next implements Space.
func (b *PermutedBox) Next(p []int64) bool {
	for pos := len(p) - 1; pos >= 0; pos-- {
		d := b.Order[pos]
		if p[pos] < b.Box.Hi[d] {
			p[pos]++
			return true
		}
		p[pos] = b.Box.Lo[d]
	}
	return false
}

// Prev implements Space.
func (b *PermutedBox) Prev(p []int64) bool {
	for pos := len(p) - 1; pos >= 0; pos-- {
		d := b.Order[pos]
		if p[pos] > b.Box.Lo[d] {
			p[pos]--
			return true
		}
		p[pos] = b.Box.Hi[d]
	}
	return false
}

// Span implements Space: position c iterates original dimension Order[c].
func (b *PermutedBox) Span(_ []int64, c int) (lo, hi int64) {
	d := b.Order[c]
	return b.Box.Lo[d], b.Box.Hi[d]
}

// Contains implements Space.
func (b *PermutedBox) Contains(p []int64) bool {
	for pos, d := range b.Order {
		if p[pos] < b.Box.Lo[d] || p[pos] > b.Box.Hi[d] {
			return false
		}
	}
	return true
}

// Count implements Space.
func (b *PermutedBox) Count() uint64 { return b.Box.Count() }

// Sample implements Space.
func (b *PermutedBox) Sample(r *rand.Rand, p []int64) {
	for pos, d := range b.Order {
		p[pos] = b.Box.Lo[d] + r.Int64N(b.Box.Extent(d))
	}
}

// ToOriginal implements Space.
func (b *PermutedBox) ToOriginal(p, orig []int64) {
	for pos, d := range b.Order {
		orig[d] = p[pos]
	}
}

// OrigView implements Space. Unlike the tiled spaces, the original
// variables are scattered across the coordinates; a scratch buffer backs
// the view, valid until the next call.
func (b *PermutedBox) OrigView(p []int64) []int64 {
	if b.scratch == nil {
		b.scratch = make([]int64, len(b.Order))
	}
	b.ToOriginal(p, b.scratch)
	return b.scratch
}

// FromOriginal implements Space.
func (b *PermutedBox) FromOriginal(orig, p []int64) {
	for pos, d := range b.Order {
		p[pos] = orig[d]
	}
}

// OrigDim implements Space: coordinate pos carries dimension Order[pos].
func (b *PermutedBox) OrigDim(pos int) int { return b.Order[pos] }

// MinWithPinned implements Space: product set, so the coordinate-wise
// minimum is the lexicographic minimum regardless of the order.
func (b *PermutedBox) MinWithPinned(pinned, p []int64) bool {
	for pos, d := range b.Order {
		switch {
		case pinned[d] == Free:
			p[pos] = b.Box.Lo[d]
		case pinned[d] < b.Box.Lo[d] || pinned[d] > b.Box.Hi[d]:
			return false
		default:
			p[pos] = pinned[d]
		}
	}
	return true
}
