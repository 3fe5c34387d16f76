// Package cme implements Cache Miss Equations (Ghosh, Martonosi & Malik)
// as used by the paper: an exact analytical model of cache behaviour for
// perfectly nested affine loops.
//
// The package has two layers:
//
//   - The point solver (this file): the paper's "traversing the iteration
//     space" solution method (§2.2–2.3). For one iteration point and one
//     reference it decides hit / compulsory miss / replacement miss exactly
//     for a k-way LRU cache, in expected O(assoc·sets/refs) time per point
//     independent of problem size. Combined with simple random sampling
//     (internal/sampling) this is the fast CME solver the paper builds.
//
//   - The symbolic equation generator (gen.go): the diophantine
//     equalities/inequalities themselves — compulsory and replacement
//     equations per reference × reuse vector × convex region (§2.1, §2.4) —
//     materialised as polyhedra for inspection, reporting and the ×n / ×n²
//     region-count accounting.
//
// The point solver is validated access-for-access against the trace-driven
// simulator (internal/cachesim) in this package's tests, and the optimized
// interference walk is validated outcome-for-outcome against the retained
// reference walk (ClassifyReference) over randomized kernels.
package cme

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/ir"
	"repro/internal/iterspace"
)

// refInfo is the precomputed address function of one reference:
// addr(v) = base + Σ coef[d]·v[d] over original loop variables, in bytes.
// coefCoord is the same function re-expressed over the SPACE COORDINATES
// (zero for tile coordinates), so the interference walk evaluates
// addresses directly on space points without extracting original
// variables.
type refInfo struct {
	base      int64
	coef      []int64
	coefCoord []int64
	// arr is the layout of the referenced array and inv[d] describes how
	// to recover original variable values from its subscripts (see
	// firstaccess.go).
	arr *arrInfo
	inv []subInv
}

// subInv is the inversion info of one array subscript of the form
// coef·v_var + cst (or a constant when var < 0).
type subInv struct {
	varIdx int // original variable index, -1 for constant subscripts
	coef   int64
	cst    int64
}

// coordRef links one space coordinate to a reference whose address depends
// on it — the transpose of the nonzero coefCoord entries. The interference
// walk applies coef·Δcoord to the reference's live address whenever the
// coordinate changes, so one backward step costs O(changed coordinates)
// instead of O(references × coordinates).
type coordRef struct {
	ref  int
	coef int64
}

// row is where the walk point's innermost run lies: the last coordinate
// runs lo..hi while the others stay fixed, and coordinate Analyzer.mid
// runs midLo..midHi (midLo is noFloor when the walk cannot cross rows
// there).
type row struct{ lo, hi, midLo, midHi int64 }

// noFloor is row.midLo when no row crossing applies: no coordinate value
// lies above it.
const noFloor = math.MaxInt64

// rowRef is a reference a row crossing moves: its coefficients on the
// last coordinate and on coordinate Analyzer.mid, and delta, what a
// crossing adds to its address for runs of Analyzer.rowLen+1 points.
type rowRef struct {
	ref              int
	last, mid, delta int64
}

// Analyzer decides per-access cache outcomes for a loop nest traversed in
// the order of a given iteration space. The nest's references must use
// subscripts of the form c or ±a·v + c (single loop variable per
// subscript), which covers every kernel in the paper's Table 1.
//
// An Analyzer is not safe for concurrent use; Clone one per goroutine.
// Rebind repoints an analyzer at a new traversal space without
// reallocating, which is how the search evaluators recycle analyzers
// across GA candidates.
type Analyzer struct {
	nest  *ir.Nest
	space iterspace.Space
	cfg   cache.Config
	nsets int64 // cfg.NumSets(), hoisted off the walk's hot path
	// lineShift/setMask exploit the validated power-of-two geometry:
	// for non-negative addresses addr>>lineShift == addr/LineSize and
	// ql&setMask == ql%NumSets exactly, so the walk's inner loop avoids
	// two integer divisions per probe. Negative addresses (possible only
	// with exotic array bases) take the exact div/mod path instead.
	lineShift uint
	setMask   int64
	cmask     int64 // NumSets·LineSize − 1, the set-mapping period's mask

	refs []refInfo
	// coordRefs[c] lists the references whose address depends on space
	// coordinate c (rebuilt on every Rebind).
	coordRefs [][]coordRef
	// runRefs holds the congruence of each reference in coordRefs[last],
	// in reference order, for the direct-mapped walk's run solve
	// (runsolve.go; rebuilt on every Rebind).
	runRefs []runSolve
	// mid is coordinate last−1 when it carries an original dimension, so
	// that at a run's floor the walk can step into the previous row
	// without Space.Prev; otherwise it is last and no crossing applies.
	// rowRefs holds the references a row crossing moves, with deltas for
	// runs of rowLen+1 points (rowLen < 0 until the first crossing).
	// Coordinates first..last all carry an original dimension; below mid
	// stepBack crosses them without Space.Prev too.
	mid     int
	first   int
	rowLen  int64
	rowRefs []rowRef
	// arrs lists the distinct arrays the references touch and origLo the
	// lowest value of each original variable in the space, for the
	// compulsory-miss test (firstaccess.go).
	arrs   []*arrInfo
	origLo []int64

	// Scratch buffers.
	walkPoint []int64
	prevPoint []int64
	liveAddr  []int64 // per-reference address at walkPoint
	// pointAddr is the per-reference address at the point ClassifyAll is
	// classifying, computed once and copied into each access's walk.
	pointAddr []int64
	// row is rowAt(walkPoint): while the last coordinate lies above
	// row.lo, one backward step only decrements that coordinate.
	row       row
	conflicts []int64
	pinned    []int64
	minPoint  []int64
	subsBuf   []int64
	walkCap   uint64
	capHits   uint64

	// Walk-cost accounting: total backward-walk steps and classified
	// accesses, for verifying the expected O(assoc·sets/refs) bound.
	walkSteps  uint64
	classified uint64

	// pointBuf is the caller-side point scratch PointScratch returns; it
	// is not inherited by clones.
	pointBuf []int64

	// The struct ends on a cache-line boundary (cacheLine), as do the
	// scratch buffers (lineInt64s): the walk writes them on every access,
	// so two analyzers classifying on different goroutines must not share
	// a line. TestAnalyzerFillsCacheLines checks the size.
	_ [48]byte
}

// cacheLine is the cache-line size the analyzer's written state is laid
// out against.
const cacheLine = 64

// lineInt64s returns a zeroed slice of length n whose backing array fills
// whole cache lines. The allocator aligns objects whose size is a
// multiple of the line to the line, so no other object shares them.
func lineInt64s(n int) []int64 {
	const perLine = cacheLine / 8
	return make([]int64, n, (max(n, 1)+perLine-1)/perLine*perLine)
}

// DefaultWalkCap bounds the backward interference walk as a safety net; it
// is high enough that no kernel in the suite reaches it with a resolvable
// reuse, and the analyzer falls back to classifying the access as a
// replacement miss when it trips (recorded in CapHits).
const DefaultWalkCap = 1 << 22

// NewAnalyzer builds an analyzer for nest traversed in space order under
// the cache configuration cfg. The nest must be the ORIGINAL nest (its
// references written over original loop variables); space supplies the
// (possibly tiled) traversal order.
func NewAnalyzer(nest *ir.Nest, space iterspace.Space, cfg cache.Config) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	a := &Analyzer{
		nest:      nest,
		cfg:       cfg,
		nsets:     cfg.NumSets(),
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		setMask:   cfg.NumSets() - 1,
		cmask:     cfg.NumSets()*cfg.LineSize - 1,
		refs:      make([]refInfo, len(nest.Refs)),
		conflicts: lineInt64s(cfg.Assoc)[:0],
		pinned:    lineInt64s(nest.Depth()),
		walkCap:   DefaultWalkCap,
	}
	arrays := make(map[*ir.Array]*arrInfo)
	maxRank := 0
	for i := range nest.Refs {
		ri, err := buildRefInfo(&nest.Refs[i], nest.Depth())
		if err != nil {
			return nil, fmt.Errorf("cme: ref %d (%s): %w", i, nest.Refs[i].String(), err)
		}
		arr := nest.Refs[i].Array
		if arrays[arr] == nil {
			arrays[arr] = newArrInfo(arr)
			a.arrs = append(a.arrs, arrays[arr])
		}
		ri.arr = arrays[arr]
		ri.arr.refs = append(ri.arr.refs, i)
		a.refs[i] = ri
		if r := arr.Rank(); r > maxRank {
			maxRank = r
		}
	}
	a.subsBuf = lineInt64s(maxRank)
	a.origLo = lineInt64s(nest.Depth())
	if err := a.bindSpace(space); err != nil {
		return nil, err
	}
	return a, nil
}

// bindSpace points the analyzer at a traversal space, (re)building every
// space-dependent structure: the per-coordinate address coefficients, their
// transpose used by the incremental walk, the row-crossing references, the
// original variables' lower bounds and the point-sized scratch buffers.
// Existing buffers are reused whenever they are large enough, so
// rebinding an analyzer between same-shape spaces allocates nothing.
func (a *Analyzer) bindSpace(space iterspace.Space) error {
	if space.OrigDims() != a.nest.Depth() {
		return fmt.Errorf("cme: space has %d original dims, nest depth %d", space.OrigDims(), a.nest.Depth())
	}
	a.space = space
	nc := space.NumCoords()
	last := nc - 1
	a.walkPoint = resizeInt64(a.walkPoint, nc)
	a.prevPoint = resizeInt64(a.prevPoint, nc)
	a.minPoint = resizeInt64(a.minPoint, nc)
	a.liveAddr = resizeInt64(a.liveAddr, len(a.refs))
	a.pointAddr = resizeInt64(a.pointAddr, len(a.refs))
	if cap(a.coordRefs) >= nc {
		a.coordRefs = a.coordRefs[:nc]
	} else {
		a.coordRefs = make([][]coordRef, nc)
	}
	for c := range a.coordRefs {
		a.coordRefs[c] = a.coordRefs[c][:0]
	}
	for i := range a.refs {
		ri := &a.refs[i]
		ri.coefCoord = resizeInt64(ri.coefCoord, nc)
		for c := range ri.coefCoord {
			var co int64
			if d := space.OrigDim(c); d >= 0 {
				co = ri.coef[d]
			}
			ri.coefCoord[c] = co
			if co != 0 {
				a.coordRefs[c] = append(a.coordRefs[c], coordRef{ref: i, coef: co})
			}
		}
	}
	a.runRefs = a.runRefs[:0]
	for _, cr := range a.coordRefs[last] {
		a.runRefs = append(a.runRefs, newRunSolve(cr.ref, cr.coef, a.cmask+1))
	}
	a.mid, a.first, a.rowLen, a.rowRefs = last, last, -1, a.rowRefs[:0]
	for a.first > 0 && space.OrigDim(a.first-1) >= 0 {
		a.first--
	}
	if a.first < last {
		a.mid = last - 1
		for i := range a.refs {
			co := a.refs[i].coefCoord
			if co[last] != 0 || co[a.mid] != 0 {
				a.rowRefs = append(a.rowRefs, rowRef{ref: i, last: co[last], mid: co[a.mid]})
			}
		}
	}
	for v := range a.pinned {
		a.pinned[v] = iterspace.Free
	}
	space.MinWithPinned(a.pinned, a.minPoint)
	space.ToOriginal(a.minPoint, a.origLo)
	return nil
}

// resizeInt64 returns a slice of length n, reusing s's backing array when
// it is large enough and allocating whole cache lines otherwise.
func resizeInt64(s []int64, n int) []int64 {
	if cap(s) >= n {
		return s[:n]
	}
	return lineInt64s(n)
}

// Rebind repoints the analyzer at a new traversal space over the same nest
// and cache configuration, reusing every internal buffer — the
// allocation-free path search evaluators use to recycle analyzers across
// candidate tilings instead of paying NewAnalyzer per evaluation. The
// walk accounting (WalkStats, CapHits) restarts from zero.
func (a *Analyzer) Rebind(space iterspace.Space) error {
	if err := a.bindSpace(space); err != nil {
		return err
	}
	a.walkSteps, a.classified, a.capHits = 0, 0, 0
	return nil
}

// Clone returns an independent analyzer sharing the immutable nest/space.
// The clone's accounting (WalkStats, CapHits) starts at zero: counters
// describe the work an analyzer itself performed, so per-worker clones
// aggregate without double-counting the parent's history.
func (a *Analyzer) Clone() *Analyzer {
	out := *a
	// Space-independent immutable state (nest, arrs, each ref's coef, arr
	// and inv) is shared; every mutable buffer is re-created so the clone is
	// fully independent of the parent, including under a later Rebind of
	// either.
	out.refs = make([]refInfo, len(a.refs))
	copy(out.refs, a.refs)
	for i := range out.refs {
		out.refs[i].coefCoord = nil
	}
	out.conflicts = lineInt64s(cap(a.conflicts))[:0]
	out.pinned = lineInt64s(len(a.pinned))
	out.subsBuf = lineInt64s(len(a.subsBuf))
	out.origLo = lineInt64s(len(a.origLo))
	out.walkPoint, out.prevPoint, out.minPoint, out.liveAddr, out.pointAddr = nil, nil, nil, nil, nil
	out.coordRefs, out.runRefs, out.rowRefs = nil, nil, nil
	out.pointBuf = nil
	if err := out.bindSpace(a.space); err != nil {
		// a.space was accepted when the parent bound it.
		panic("cme: clone rebind failed: " + err.Error())
	}
	out.walkSteps, out.classified, out.capHits = 0, 0, 0
	return &out
}

// PointScratch returns a caller-owned scratch point sized to the bound
// space's coordinate count, reused across calls. Classification loops use
// it to translate sampled points without a per-batch allocation; it is
// independent of the walk's internal buffers.
func (a *Analyzer) PointScratch() []int64 {
	a.pointBuf = resizeInt64(a.pointBuf, a.space.NumCoords())
	return a.pointBuf
}

// Space returns the traversal space.
func (a *Analyzer) Space() iterspace.Space { return a.space }

// Nest returns the analyzed nest.
func (a *Analyzer) Nest() *ir.Nest { return a.nest }

// Config returns the cache configuration.
func (a *Analyzer) Config() cache.Config { return a.cfg }

// CapHits reports how many classifications tripped the walk cap (0 in all
// normal operation).
func (a *Analyzer) CapHits() uint64 { return a.capHits }

// WalkStats reports the cumulative backward-walk steps and the number of
// classified accesses — the empirical cost of the point solver. A step is
// one position (point, reference) the walk passed, scanned or solved: the
// direct-mapped walk counts the positions its run solve skips, so the
// count equals a point-by-point scan's. The expected steps per access is
// O(assoc · sets / references-per-iteration), independent of problem size
// (checked in tests).
func (a *Analyzer) WalkStats() (steps, accesses uint64) {
	return a.walkSteps, a.classified
}

// WalkCounts is the WalkStats/CapHits triple as a value, so callers can
// snapshot an analyzer before and after a batch and report the delta even
// when Rebind (which zeroes the accounting) happens in between.
type WalkCounts struct {
	Steps      uint64
	Classified uint64
	CapHits    uint64
}

// WalkCounts returns the analyzer's cumulative walk accounting.
func (a *Analyzer) WalkCounts() WalkCounts {
	return WalkCounts{Steps: a.walkSteps, Classified: a.classified, CapHits: a.capHits}
}

// Plus returns the fieldwise sum w + o.
func (w WalkCounts) Plus(o WalkCounts) WalkCounts {
	return WalkCounts{w.Steps + o.Steps, w.Classified + o.Classified, w.CapHits + o.CapHits}
}

// Sub returns the fieldwise difference w - o (a delta since a snapshot).
func (w WalkCounts) Sub(o WalkCounts) WalkCounts {
	return WalkCounts{w.Steps - o.Steps, w.Classified - o.Classified, w.CapHits - o.CapHits}
}

func buildRefInfo(r *ir.Ref, depth int) (refInfo, error) {
	strides := r.Array.Strides()
	info := refInfo{
		base: r.Array.Base + r.Array.BasePad,
		coef: make([]int64, depth),
		inv:  make([]subInv, len(r.Subs)),
	}
	for d, sub := range r.Subs {
		idx, coef, single := sub.SingleVar()
		switch {
		case sub.IsConst():
			info.inv[d] = subInv{varIdx: -1, cst: sub.Const}
		case single:
			info.inv[d] = subInv{varIdx: idx, coef: coef, cst: sub.Const}
		default:
			return refInfo{}, fmt.Errorf("subscript %d is multi-variable (%s); not supported", d, sub)
		}
		info.base += (sub.Const - 1) * strides[d] * r.Array.Elem
		for v := 0; v < depth; v++ {
			info.coef[v] += sub.Coeff(v) * strides[d] * r.Array.Elem
		}
	}
	return info, nil
}

// addrAt computes the byte address reference refIdx touches at the given
// space point.
func (a *Analyzer) addrAt(point []int64, refIdx int) int64 {
	ri := &a.refs[refIdx]
	addr := ri.base
	for c, co := range ri.coefCoord {
		if co != 0 {
			addr += co * point[c]
		}
	}
	return addr
}

// Classify decides the outcome of the access performed by reference refIdx
// at space point p. It is exact for LRU caches of the configured geometry.
func (a *Analyzer) Classify(p []int64, refIdx int) cachesim.Outcome {
	a.startWalk(p)
	return a.classifyPrimed(p, refIdx)
}

// classifyPrimed is Classify from a walk state already primed at p.
func (a *Analyzer) classifyPrimed(p []int64, refIdx int) cachesim.Outcome {
	a.classified++
	line := a.lineOf(a.liveAddr[refIdx])

	if !a.touchedJustBefore(refIdx, line) && a.isFirstAccess(p, refIdx, line) {
		return cachesim.CompulsoryMiss
	}
	if a.cfg.Assoc == 1 {
		return a.walkDirect(refIdx, line)
	}
	return a.walkAssoc(refIdx, line)
}

// lineOf is cfg.LineOf, by a shift for non-negative addresses.
func (a *Analyzer) lineOf(addr int64) int64 {
	if addr >= 0 {
		return addr >> a.lineShift
	}
	return addr / a.cfg.LineSize
}

// touchedJustBefore is the O(1) witness that spares most accesses the
// exact first-access test: it reports whether an earlier reference at the
// walk's start point, or reference refIdx itself one innermost step back,
// touched the line. Either access precedes the one being classified, so
// true proves the access is no compulsory miss; false proves nothing.
func (a *Analyzer) touchedJustBefore(refIdx int, line int64) bool {
	last := len(a.walkPoint) - 1
	if a.walkPoint[last] > a.row.lo &&
		a.lineOf(a.liveAddr[refIdx]-a.refs[refIdx].coefCoord[last]) == line {
		return true
	}
	for r := 0; r < refIdx; r++ {
		if a.lineOf(a.liveAddr[r]) == line {
			return true
		}
	}
	return false
}

// startWalk primes the backward interference walk at p: walkPoint holds
// the current point, liveAddr the address every reference touches there
// and row where the point's innermost run lies. From here the walks
// maintain all three incrementally. ClassifyAll primes the same state
// from addresses and a row it computes once per point.
func (a *Analyzer) startWalk(p []int64) {
	copy(a.walkPoint, p)
	for r := range a.refs {
		a.liveAddr[r] = a.addrAt(p, r)
	}
	a.row = a.rowAt(p)
}

// rowAt returns the row of point p: the Span of the last coordinate and
// the floor of coordinate mid.
func (a *Analyzer) rowAt(p []int64) row {
	last := len(p) - 1
	r := row{midLo: noFloor}
	r.lo, r.hi = a.space.Span(p, last)
	if a.mid != last {
		r.midLo, r.midHi = a.space.Span(p, a.mid)
	}
	return r
}

// moveCoord sets coordinate c of the walk point to v and moves the live
// address of every reference depending on it.
func (a *Analyzer) moveCoord(c int, v int64) {
	d := v - a.walkPoint[c]
	a.walkPoint[c] = v
	for _, cr := range a.coordRefs[c] {
		a.liveAddr[cr.ref] += cr.coef * d
	}
}

// stepBack moves the walk one iteration point earlier and updates the live
// addresses incrementally. Inside an innermost run the step is one
// decrement of the last coordinate and touches only the references that
// depend on it. At a run's floor with coordinate mid above its own, the
// step crosses into the previous row of the same tile: mid drops by one,
// the last coordinate returns to the run's ceiling and each reference in
// rowRefs moves by coef_last·(hi−lo) − coef_mid. Otherwise the deepest
// coordinate of first..mid−1 above its floor (read through Span) drops
// by one and every later coordinate returns to its ceiling, each move
// applied through moveCoord. Span's contract puts Prev's result there and
// keeps the row. Only a crossing that moves a tile coordinate calls
// space.Prev, which touches the references depending on a changed
// coordinate — O(changed coords) work instead of recomputing every
// reference's full affine address — and re-reads the row.
func (a *Analyzer) stepBack() bool {
	cur := a.walkPoint
	last := len(cur) - 1
	if cur[last] > a.row.lo {
		cur[last]--
		for _, cr := range a.coordRefs[last] {
			a.liveAddr[cr.ref] -= cr.coef
		}
		return true
	}
	if cur[a.mid] > a.row.midLo {
		if n := a.row.hi - a.row.lo; n != a.rowLen {
			a.rowLen = n
			for i := range a.rowRefs {
				rr := &a.rowRefs[i]
				rr.delta = rr.last*n - rr.mid
			}
		}
		cur[a.mid]--
		cur[last] = a.row.hi
		for i := range a.rowRefs {
			rr := &a.rowRefs[i]
			a.liveAddr[rr.ref] += rr.delta
		}
		return true
	}
	for c := a.mid - 1; c >= a.first; c-- {
		if lo, _ := a.space.Span(cur, c); cur[c] > lo {
			a.moveCoord(c, cur[c]-1)
			for e := c + 1; e < a.mid; e++ {
				_, hi := a.space.Span(cur, e)
				a.moveCoord(e, hi)
			}
			a.moveCoord(a.mid, a.row.midHi)
			a.moveCoord(last, a.row.hi)
			return true
		}
	}
	copy(a.prevPoint, cur)
	if !a.space.Prev(cur) {
		return false
	}
	for c, v := range cur {
		if d := v - a.prevPoint[c]; d != 0 {
			for _, cr := range a.coordRefs[c] {
				a.liveAddr[cr.ref] += cr.coef * d
			}
		}
	}
	a.row = a.rowAt(cur)
	return true
}

// walkDirect is the direct-mapped (assoc = 1) fast path of the backward
// interference walk: with a single way per set, the first other line
// landing in the target set evicts the reuse source, so no conflict list
// is kept at all — the walk is a pure scan over live addresses. Like
// walkAssoc, it continues from the state startWalk primed.
//
// Once it has scanned solveScanPoints whole points of an innermost run
// and at least solveMinRemaining points remain, it solves the rest of the
// run (solveRun) instead of scanning it: it stops where the first
// reference lands in the target set, or jumps to the run's floor and
// crosses into the previous run. The positions it passes that way count
// as walk steps, and the walk cap trips at the same count, so outcomes and
// accounting equal the scan's.
func (a *Analyzer) walkDirect(refIdx int, line int64) cachesim.Outcome {
	set := line % a.nsets
	lineSize, nsets := a.cfg.LineSize, a.nsets
	lineShift, setMask := a.lineShift, a.setMask
	live, cur := a.liveAddr, a.walkPoint
	last := len(cur) - 1
	inner := a.coordRefs[last]
	n := len(a.refs)
	walkCap := a.walkCap
	// Above stop a point step is one decrement inside the run; at stop
	// the walk either solves the rest of the run or, at the floor,
	// crosses into the previous one. The start point is scanned only in
	// part, so the run's first whole point is the one below it.
	floor := a.row.lo
	stop := solveStop(cur[last]-1, floor)
	ref := refIdx
	var steps uint64
	for {
		ref--
		if ref < 0 {
			ref = n - 1
			switch {
			case cur[last] > stop:
				cur[last]--
				for _, cr := range inner {
					live[cr.ref] -= cr.coef
				}
			case cur[last] > floor:
				rem := cur[last] - floor
				s, j := a.solveRun(set, rem)
				switch {
				case s > 0:
					rs := &a.runRefs[j]
					skip := uint64(s-1)*uint64(n) + uint64(n-1-rs.ref)
					if steps+skip >= walkCap {
						a.walkSteps += walkCap
						a.capHits++
						return cachesim.ReplacementMiss
					}
					a.walkSteps += steps + skip
					if (live[rs.ref]-s*rs.coef)>>lineShift == line {
						return cachesim.Hit
					}
					return cachesim.ReplacementMiss
				case s == 0:
					if steps += uint64(rem) * uint64(n); steps >= walkCap {
						a.walkSteps += walkCap
						a.capHits++
						return cachesim.ReplacementMiss
					}
					cur[last] = floor
					for _, cr := range inner {
						live[cr.ref] -= rem * cr.coef
					}
				default:
					// An address could be negative in the stretch:
					// scan the rest of the run.
					stop = floor
				}
				// Every position of the walk point is passed: step
				// again, from the floor into the previous run or on
				// through the run being scanned.
				ref = 0
				continue
			default:
				if !a.stepBack() {
					// No earlier access to the line exists,
					// contradicting the first-access test: unreachable
					// by construction.
					panic("cme: walked past the start of a non-compulsory access")
				}
				floor = a.row.lo
				stop = solveStop(cur[last], floor)
			}
		}
		if q := live[ref]; q >= 0 {
			ql := q >> lineShift
			if ql == line {
				a.walkSteps += steps
				return cachesim.Hit
			}
			if ql&setMask == set {
				a.walkSteps += steps
				return cachesim.ReplacementMiss
			}
		} else {
			ql := q / lineSize
			if ql == line {
				a.walkSteps += steps
				return cachesim.Hit
			}
			if ql%nsets == set {
				a.walkSteps += steps
				return cachesim.ReplacementMiss
			}
		}
		steps++
		if steps >= walkCap {
			a.walkSteps += steps
			a.capHits++
			return cachesim.ReplacementMiss
		}
	}
}

// solveStop returns the value of the last coordinate at which the
// direct-mapped walk solves the rest of a run whose first whole point has
// last coordinate firstWhole: the point after which solveScanPoints whole
// points are scanned, provided solveMinRemaining points remain below it.
// Otherwise it returns the run's floor, and the run is scanned to its end.
func solveStop(firstWhole, floor int64) int64 {
	if at := firstWhole - (solveScanPoints - 1); at-floor >= solveMinRemaining {
		return at
	}
	return floor
}

// walkAssoc is the k-way walk: scan accesses in reverse execution order
// until we meet the previous access to this line. The line is still
// resident iff fewer than `assoc` distinct other lines mapping to the same
// set were touched in between (the LRU stack property). Addresses come
// from the incrementally maintained liveAddr.
func (a *Analyzer) walkAssoc(refIdx int, line int64) cachesim.Outcome {
	set := line % a.nsets
	conflicts := a.conflicts[:0]
	lineSize, nsets := a.cfg.LineSize, a.nsets
	lineShift, setMask := a.lineShift, a.setMask
	live := a.liveAddr
	walkCap := a.walkCap
	assoc := a.cfg.Assoc
	ref := refIdx
	var steps uint64
	for {
		ref--
		if ref < 0 {
			if !a.stepBack() {
				panic("cme: walked past the start of a non-compulsory access")
			}
			ref = len(a.refs) - 1
		}
		var ql int64
		var sameSet bool
		if q := live[ref]; q >= 0 {
			ql = q >> lineShift
			sameSet = ql&setMask == set
		} else {
			ql = q / lineSize
			sameSet = ql%nsets == set
		}
		if ql == line {
			a.walkSteps += steps
			if len(conflicts) < assoc {
				return cachesim.Hit
			}
			return cachesim.ReplacementMiss
		}
		if sameSet {
			known := false
			for _, c := range conflicts {
				if c == ql {
					known = true
					break
				}
			}
			if !known {
				conflicts = append(conflicts, ql)
				if len(conflicts) >= assoc {
					a.walkSteps += steps
					return cachesim.ReplacementMiss
				}
			}
		}
		steps++
		if steps >= walkCap {
			a.walkSteps += steps
			a.capHits++
			return cachesim.ReplacementMiss
		}
	}
}

// ClassifyReference is the retained pre-optimization interference walk: it
// recomputes every reference's full affine address at every backward step
// instead of maintaining live addresses incrementally, calls Prev at every
// step, runs the general k-way path even for direct-mapped caches and
// decides compulsory misses element by element (isFirstAccessByElement).
// It classifies exactly like Classify and exists as the behavioural oracle
// for the differential tests and the BenchmarkClassify baseline;
// production paths always use Classify.
func (a *Analyzer) ClassifyReference(p []int64, refIdx int) cachesim.Outcome {
	a.classified++
	addr := a.addrAt(p, refIdx)
	line := a.cfg.LineOf(addr)
	set := a.cfg.SetOfLine(line)

	if a.isFirstAccessByElement(p, refIdx, line) {
		return cachesim.CompulsoryMiss
	}

	cur := a.walkPoint
	copy(cur, p)
	ref := refIdx
	a.conflicts = a.conflicts[:0]
	assoc := a.cfg.Assoc
	var steps uint64
	for {
		ref--
		if ref < 0 {
			if !a.space.Prev(cur) {
				panic("cme: walked past the start of a non-compulsory access")
			}
			ref = len(a.refs) - 1
		}
		q := a.addrAt(cur, ref)
		ql := a.cfg.LineOf(q)
		if ql == line {
			if len(a.conflicts) < assoc {
				return cachesim.Hit
			}
			return cachesim.ReplacementMiss
		}
		if a.cfg.SetOfLine(ql) == set {
			known := false
			for _, c := range a.conflicts {
				if c == ql {
					known = true
					break
				}
			}
			if !known {
				a.conflicts = append(a.conflicts, ql)
				if len(a.conflicts) >= assoc {
					return cachesim.ReplacementMiss
				}
			}
		}
		steps++
		a.walkSteps++
		if steps >= a.walkCap {
			a.capHits++
			return cachesim.ReplacementMiss
		}
	}
}

// ClassifyAll classifies every reference at point p, accumulating into st.
// It computes the point's addresses and row once and primes each access's
// walk from them.
func (a *Analyzer) ClassifyAll(p []int64, st *cachesim.Stats) {
	for r := range a.refs {
		a.pointAddr[r] = a.addrAt(p, r)
	}
	pr := a.rowAt(p)
	for r := range a.refs {
		st.Accesses++
		copy(a.walkPoint, p)
		copy(a.liveAddr, a.pointAddr)
		a.row = pr
		switch a.classifyPrimed(p, r) {
		case cachesim.Hit:
			st.Hits++
		case cachesim.CompulsoryMiss:
			st.Compulsory++
		case cachesim.ReplacementMiss:
			st.Replacement++
		}
	}
}

// ExhaustiveStats classifies every access of the space (small spaces only)
// and returns the aggregate statistics. This is the exact CME solution of
// the whole iteration space.
func (a *Analyzer) ExhaustiveStats() cachesim.Stats {
	var st cachesim.Stats
	p := make([]int64, a.space.NumCoords())
	if !a.space.First(p) {
		return st
	}
	for {
		a.ClassifyAll(p, &st)
		if !a.space.Next(p) {
			break
		}
	}
	return st
}
