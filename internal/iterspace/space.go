// Package iterspace provides iteration-space abstractions: rectangular
// (original) spaces, tiled spaces with min() upper bounds, lexicographic
// traversal in execution order, uniform sampling, and the decomposition of
// a tiled space into the 2ⁿ convex regions described in §2.4 of the paper.
//
// A point is a []int64 of coordinates in loop order, outermost first. For a
// tiled space over k original loops the coordinates are the k tile loops,
// in the space's tile-loop order, followed by the k element loops
// (i_1..i_k).
// Tiling permutes execution order but preserves the set of original points,
// which is what makes uniform sampling over tiled spaces cheap.
package iterspace

import (
	"math"
	"math/rand/v2"
)

// Free marks an unpinned coordinate in MinWithPinned queries.
const Free = math.MinInt64

// Space is an iteration space traversed in lexicographic coordinate order,
// which by construction equals program execution order.
type Space interface {
	// NumCoords returns the number of coordinates of a point.
	NumCoords() int
	// OrigDims returns the number of original loop variables.
	OrigDims() int
	// First writes the first point in execution order; false if empty.
	First(p []int64) bool
	// Next advances p to the next point in execution order; false at end.
	Next(p []int64) bool
	// Prev moves p to the previous point; false at the beginning.
	Prev(p []int64) bool
	// Span returns the range lo..hi that coordinate c takes, in steps of
	// 1, while every coordinate before it stays fixed. Coordinate c must
	// carry an original dimension (OrigDim(c) >= 0). Span reads p only at
	// the coordinates before c that carry none (tile coordinates), so
	// moving any coordinate that does carry one leaves every Span
	// unchanged. Once every coordinate after c sits at the lo of its Span,
	// Prev decrements p[c] while p[c] > lo and moves each later coordinate
	// to the hi of its Span; at p[c] == lo it changes an earlier
	// coordinate or reports false.
	Span(p []int64, c int) (lo, hi int64)
	// Contains reports whether p is a valid point of the space.
	Contains(p []int64) bool
	// Count returns the total number of points.
	Count() uint64
	// Sample writes a uniformly random point of the space.
	Sample(r *rand.Rand, p []int64)
	// ToOriginal extracts the original loop variables from a point.
	ToOriginal(p, orig []int64)
	// OrigView returns the original loop variables of p as a slice. For
	// spaces whose trailing coordinates are the original variables it
	// aliases p; otherwise it may use an internal scratch buffer, valid
	// until the next call.
	OrigView(p []int64) []int64
	// OrigDim returns the original dimension whose value coordinate c
	// carries, or -1 for a tile coordinate (which duplicates information
	// already present in the element coordinates).
	OrigDim(c int) int
	// FromOriginal writes the unique space point whose original
	// coordinates equal orig.
	FromOriginal(orig, p []int64)
	// MinWithPinned writes the lexicographically smallest point whose
	// original coordinate d equals pinned[d] for every pinned[d] != Free.
	// It reports false when a pinned value lies outside the space. The
	// values dimension d can be pinned to form one range, whatever the
	// other pins, starting at d's value in the all-Free minimum; and
	// raising one pinned value within it never yields an earlier point.
	// The compulsory-miss test relies on both: the earliest point among
	// several values of one dimension is the one at the least value.
	MinWithPinned(pinned, p []int64) bool
}

// Box is a rectangular iteration space: Lo[d] ≤ p[d] ≤ Hi[d], step 1.
type Box struct {
	Lo, Hi []int64
}

// NewBox builds a box from inclusive bounds. It panics on malformed input
// since boxes come from validated kernels.
func NewBox(lo, hi []int64) *Box {
	if len(lo) != len(hi) || len(lo) == 0 {
		panic("iterspace: bad box rank")
	}
	for d := range lo {
		if lo[d] > hi[d] {
			panic("iterspace: empty box dimension")
		}
	}
	return &Box{Lo: append([]int64(nil), lo...), Hi: append([]int64(nil), hi...)}
}

// Extent returns the number of values of dimension d.
func (b *Box) Extent(d int) int64 { return b.Hi[d] - b.Lo[d] + 1 }

// NumCoords implements Space.
func (b *Box) NumCoords() int { return len(b.Lo) }

// OrigDims implements Space.
func (b *Box) OrigDims() int { return len(b.Lo) }

// First implements Space.
func (b *Box) First(p []int64) bool {
	copy(p, b.Lo)
	return true
}

// Next implements Space.
func (b *Box) Next(p []int64) bool {
	for d := len(p) - 1; d >= 0; d-- {
		if p[d] < b.Hi[d] {
			p[d]++
			return true
		}
		p[d] = b.Lo[d]
	}
	return false
}

// Prev implements Space.
func (b *Box) Prev(p []int64) bool {
	for d := len(p) - 1; d >= 0; d-- {
		if p[d] > b.Lo[d] {
			p[d]--
			return true
		}
		p[d] = b.Hi[d]
	}
	return false
}

// Span implements Space.
func (b *Box) Span(_ []int64, c int) (lo, hi int64) { return b.Lo[c], b.Hi[c] }

// Contains implements Space.
func (b *Box) Contains(p []int64) bool {
	for d := range p {
		if p[d] < b.Lo[d] || p[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// Count implements Space.
func (b *Box) Count() uint64 {
	n := uint64(1)
	for d := range b.Lo {
		n *= uint64(b.Extent(d))
	}
	return n
}

// Sample implements Space.
func (b *Box) Sample(r *rand.Rand, p []int64) {
	for d := range b.Lo {
		p[d] = b.Lo[d] + r.Int64N(b.Extent(d))
	}
}

// ToOriginal implements Space.
func (b *Box) ToOriginal(p, orig []int64) { copy(orig, p) }

// OrigView implements Space.
func (b *Box) OrigView(p []int64) []int64 { return p }

// OrigDim implements Space: the identity.
func (b *Box) OrigDim(c int) int { return c }

// FromOriginal implements Space.
func (b *Box) FromOriginal(orig, p []int64) { copy(p, orig) }

// MinWithPinned implements Space.
func (b *Box) MinWithPinned(pinned, p []int64) bool {
	for d := range b.Lo {
		switch {
		case pinned[d] == Free:
			p[d] = b.Lo[d]
		case pinned[d] < b.Lo[d] || pinned[d] > b.Hi[d]:
			return false
		default:
			p[d] = pinned[d]
		}
	}
	return true
}

// Compare orders two points of the same space by execution order: -1 if a
// executes before b, 0 if equal, 1 if after. Lexicographic coordinate order
// is execution order for every Space in this package.
func Compare(a, b []int64) int {
	for d := range a {
		switch {
		case a[d] < b[d]:
			return -1
		case a[d] > b[d]:
			return 1
		}
	}
	return 0
}
