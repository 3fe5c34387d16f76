package cme

import (
	"repro/internal/ir"
	"repro/internal/iterspace"
)

// arrInfo caches the layout data needed for allocation-free subscript
// inversion of one array, and the references that touch it.
type arrInfo struct {
	base    int64 // byte address of element 0, padding included
	end     int64 // byte address just past the last element
	elem    int64 // element size in bytes
	strides []int64
	// order lists the dimensions by descending stride. A dimension of
	// padded extent 1 shares its stride with the next one in the layout,
	// and it comes after that one: its subscript is always 1.
	order []int
	dims  []int64
	total int64 // padded element count
	// unit is the dimension whose subscript steps through consecutive
	// elements: the first of order with stride 1, which splits order
	// into outer (before it) and ones (after it, each of extent 1).
	unit        int
	unitExt     int64 // padded extent of unit
	outer, ones []int
	refs        []int // indices of the references to this array, ascending
}

func newArrInfo(a *ir.Array) *arrInfo {
	strides := a.Strides()
	pext := make([]int64, len(strides))
	for d := range pext {
		pext[d] = a.Dims[d]
		if a.Pad != nil {
			pext[d] += a.Pad[d]
		}
	}
	order := make([]int, len(strides))
	for i := range order {
		order[i] = i
	}
	before := func(x, y int) bool {
		return strides[x] > strides[y] || strides[x] == strides[y] && pext[x] > pext[y]
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if before(order[j], order[i]) {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	u := 0
	for strides[order[u]] != 1 {
		u++
	}
	base, total := a.Base+a.BasePad, a.SizeBytes()/a.Elem
	return &arrInfo{base: base, end: base + total*a.Elem, elem: a.Elem, strides: strides,
		order: order, dims: a.Dims, total: total, unit: order[u], unitExt: pext[order[u]],
		outer: order[:u], ones: order[u+1:]}
}

// delinearize inverts the element index into 1-based subscripts without
// allocating; it reports false for indices in padding or out of range.
func (ai *arrInfo) delinearize(idx int64, subs []int64) bool {
	if idx < 0 || idx >= ai.total {
		return false
	}
	for _, d := range ai.order {
		q := idx / ai.strides[d]
		idx -= q * ai.strides[d]
		if q >= ai.dims[d] {
			return false
		}
		subs[d] = q + 1
	}
	return true
}

// elemRange returns the element indices k0..k1 of the array whose start
// byte lies in lineStart..lineEnd, clipped to the array; ok is false when
// there are none.
func (ai *arrInfo) elemRange(lineStart, lineEnd int64) (k0, k1 int64, ok bool) {
	b, elem := ai.base, ai.elem
	if lineEnd < b || lineStart >= ai.end {
		return 0, 0, false
	}
	if lineStart > b {
		k0 = (lineStart - b + elem - 1) / elem
	}
	k1 = min((lineEnd-b)/elem, ai.total-1)
	return k0, k1, k0 <= k1
}

// segment delinearizes element k (k ≤ k1) into subs and returns the
// elements k..next−1 that share every subscript but the unit-stride one:
// along them that subscript runs x0..x1, clipped to the declared extent
// and to k1. ok is false when the segment lies wholly in padding.
func (ai *arrInfo) segment(k, k1 int64, subs []int64) (x0, x1, next int64, ok bool) {
	ok = true
	idx := k
	for _, d := range ai.outer {
		q := idx / ai.strides[d]
		idx -= q * ai.strides[d]
		if q >= ai.dims[d] {
			ok = false
		}
		subs[d] = q + 1
	}
	for _, d := range ai.ones {
		subs[d] = 1
	}
	x0 = idx + 1
	subs[ai.unit] = x0
	end := min(k1, k+ai.unitExt-x0)
	return x0, min(x0+end-k, ai.dims[ai.unit]), end + 1, ok && idx < ai.dims[ai.unit]
}

// isFirstAccess reports whether the access by reference refIdx at space
// point p is the first access ever (in execution order) to the given
// memory line — i.e. a compulsory miss.
//
// The test is exact and makes one space query per reference and segment.
// A cache line holds at most LineSize/Elem elements of an array, which
// fall into a few segments that differ only in the unit-stride subscript.
// For each reference to the array and each segment, earliestIn pins the
// loop variables the other subscripts fix and takes the least value of
// the unit-stride subscript's variable that reaches the segment; because
// raising one pinned value never makes MinWithPinned return an earlier
// point, that is the earliest point at which the reference touches the
// segment. If it precedes p (or coincides with p at an earlier body
// reference), the line was touched before. The accessing reference's own
// array is checked first, since it holds most witnesses.
func (a *Analyzer) isFirstAccess(p []int64, refIdx int, line int64) bool {
	lineStart := line * a.cfg.LineSize
	lineEnd := lineStart + a.cfg.LineSize - 1
	own := a.refs[refIdx].arr
	if a.touchedEarlier(own, p, refIdx, lineStart, lineEnd) {
		return false
	}
	for _, ai := range a.arrs {
		if ai != own && a.touchedEarlier(ai, p, refIdx, lineStart, lineEnd) {
			return false
		}
	}
	return true
}

// touchedEarlier reports whether some reference to array ai touches an
// element starting in lineStart..lineEnd before the access by reference
// refIdx at p.
func (a *Analyzer) touchedEarlier(ai *arrInfo, p []int64, refIdx int, lineStart, lineEnd int64) bool {
	k, k1, ok := ai.elemRange(lineStart, lineEnd)
	if !ok {
		return false
	}
	subs := a.subsBuf[:len(ai.dims)]
	for k <= k1 {
		x0, x1, next, ok := ai.segment(k, k1, subs)
		k = next
		if !ok {
			continue
		}
		for _, rj := range ai.refs {
			if !a.earliestIn(rj, subs, ai.unit, x0, x1) {
				continue
			}
			switch iterspace.Compare(a.minPoint, p) {
			case -1:
				return true
			case 0:
				if rj < refIdx {
					return true
				}
			}
		}
	}
	return false
}

// earliestIn writes into a.minPoint the earliest point at which reference
// rj touches an element whose subscripts equal subs, except subscript u,
// which may take any value in x0..x1. It reports false when no point of
// the space does.
func (a *Analyzer) earliestIn(rj int, subs []int64, u int, x0, x1 int64) bool {
	if !a.pinsFor(rj, subs, u) {
		return false
	}
	in := a.refs[rj].inv[u]
	if in.varIdx < 0 {
		if in.cst < x0 || in.cst > x1 {
			return false
		}
		return a.space.MinWithPinned(a.pinned, a.minPoint)
	}
	// The values v with x0 ≤ coef·v + cst ≤ x1.
	vlo, vhi := x0-in.cst, x1-in.cst
	if c := in.coef; c != 1 {
		if c < 0 {
			vlo, vhi, c = -vhi, -vlo, -c
		}
		vlo, vhi = -floorDiv(-vlo, c), floorDiv(vhi, c)
	}
	if cur := a.pinned[in.varIdx]; cur != iterspace.Free {
		if cur < vlo || cur > vhi {
			return false
		}
	} else {
		v := max(vlo, a.origLo[in.varIdx])
		if v > vhi {
			return false
		}
		a.pinned[in.varIdx] = v
	}
	return a.space.MinWithPinned(a.pinned, a.minPoint)
}

// floorDiv returns ⌊x/c⌋ for c > 0.
func floorDiv(x, c int64) int64 {
	q := x / c
	if x%c < 0 {
		q--
	}
	return q
}

// isFirstAccessByElement is the per-element form of isFirstAccess, kept as
// ClassifyReference's own test so the differential tests check the
// per-segment one against it. It runs in O(refs × elementsPerLine × dims):
// for each reference and each element of the line it inverts the
// subscripts to the loop variables they pin and asks the space for the
// lexicographically earliest point with those pins.
func (a *Analyzer) isFirstAccessByElement(p []int64, refIdx int, line int64) bool {
	lineStart := line * a.cfg.LineSize
	lineEnd := lineStart + a.cfg.LineSize - 1

	for rj := range a.refs {
		ai := a.refs[rj].arr
		k0, k1, ok := ai.elemRange(lineStart, lineEnd)
		if !ok {
			continue
		}
		subs := a.subsBuf[:len(ai.dims)]
		for k := k0; k <= k1; k++ {
			if !ai.delinearize(k, subs) {
				continue // index in padding
			}
			if !a.pinsFor(rj, subs, -1) {
				continue // element unreachable by this reference
			}
			if !a.space.MinWithPinned(a.pinned, a.minPoint) {
				continue // pinned values outside the iteration space
			}
			switch iterspace.Compare(a.minPoint, p) {
			case -1:
				return false
			case 0:
				if rj < refIdx {
					return false
				}
			}
		}
	}
	return true
}

// pinsFor computes, into a.pinned, the loop-variable values reference rj
// must take to touch the element with the given subscripts, skipping
// subscript skip (−1 for none). It reports false when the element is
// unreachable (constant-subscript mismatch, non-integral solution, or
// conflicting pins).
func (a *Analyzer) pinsFor(rj int, subs []int64, skip int) bool {
	for v := range a.pinned {
		a.pinned[v] = iterspace.Free
	}
	for d, inv := range a.refs[rj].inv {
		if d == skip {
			continue
		}
		if inv.varIdx < 0 {
			if subs[d] != inv.cst {
				return false
			}
			continue
		}
		val := subs[d] - inv.cst
		if inv.coef != 1 {
			if val%inv.coef != 0 {
				return false
			}
			val /= inv.coef
		}
		if cur := a.pinned[inv.varIdx]; cur != iterspace.Free && cur != val {
			return false
		}
		a.pinned[inv.varIdx] = val
	}
	return true
}
