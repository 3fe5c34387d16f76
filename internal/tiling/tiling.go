// Package tiling implements the loop-tiling transformation of §3:
// strip-mining every loop of a rectangular nest and interchanging the tile
// loops outward, producing the classic 2k-deep nest with min() upper bounds
// (Figure 3 of the paper) together with its iteration space.
//
// Tile sizes T_d range over [1, U_d]; T_d = U_d leaves dimension d
// effectively untiled. Tiling only reorders the iteration points — the
// multiset of memory accesses (and hence the compulsory miss count) is
// invariant, which the tests check.
package tiling

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/ir"
	"repro/internal/iterspace"
)

// Box returns the rectangular iteration space of an original nest.
func Box(nest *ir.Nest) (*iterspace.Box, error) {
	if !nest.IsRectangular() {
		return nil, fmt.Errorf("tiling: nest %s is not rectangular", nest.Name)
	}
	k := nest.Depth()
	lo := make([]int64, k)
	hi := make([]int64, k)
	for d, l := range nest.Loops {
		lo[d] = l.Lower.Eval(nil)
		hi[d] = l.Upper.Eval(nil)
		if lo[d] > hi[d] {
			return nil, fmt.Errorf("tiling: nest %s loop %s is empty", nest.Name, l.Var)
		}
	}
	return iterspace.NewBox(lo, hi), nil
}

// Apply tiles the nest with the given tile vector and the tile loops in
// original order, returning the transformed nest (2k loops: tile loops
// then element loops) and the tiled iteration space describing its
// execution order.
func Apply(nest *ir.Nest, tile []int64) (*ir.Nest, *iterspace.Tiled, error) {
	order := make([]int, nest.Depth())
	for d := range order {
		order[d] = d
	}
	return ApplyPermuted(nest, tile, order)
}

// ApplyPermuted tiles the nest and interchanges the tile loops into the
// given order (order[p] = original loop at tile position p) — the general
// strip-mine + interchange form of §3. Element loops keep the original
// order innermost, which is legal for the fully permutable rectangular
// nests the analysis targets.
func ApplyPermuted(nest *ir.Nest, tile []int64, order []int) (*ir.Nest, *iterspace.Tiled, error) {
	box, err := Box(nest)
	if err != nil {
		return nil, nil, err
	}
	k := nest.Depth()
	if len(tile) != k {
		return nil, nil, fmt.Errorf("tiling: %d tile sizes for depth-%d nest", len(tile), k)
	}
	pos, err := positions(order, k)
	if err != nil {
		return nil, nil, err
	}
	for d, t := range tile {
		if t < 1 || t > box.Extent(d) {
			return nil, nil, fmt.Errorf("tiling: tile size %d out of [1,%d] for loop %s",
				t, box.Extent(d), nest.Loops[d].Var)
		}
	}
	out := &ir.Nest{
		Name:  nest.Name + "_tiled",
		Loops: make([]ir.Loop, 0, 2*k),
		Refs:  make([]ir.Ref, len(nest.Refs)),
	}
	// Tile loops in interchange order: do ii_d = lo_d, hi_d, T_d at tile
	// position p, which holds original dimension d = order[p] and is
	// variable p of the new nest.
	for _, d := range order {
		out.Loops = append(out.Loops, ir.Loop{
			Var:   "ii_" + nest.Loops[d].Var,
			Lower: expr.Const(box.Lo[d]),
			Upper: ir.BoundOf(expr.Const(box.Hi[d])),
			Step:  tile[d],
		})
	}
	// Element loops in original order: do i_d = ii_d, min(ii_d+T_d-1, hi_d),
	// with ii_d the variable at the tile position of d.
	for d := 0; d < k; d++ {
		out.Loops = append(out.Loops, ir.Loop{
			Var:   nest.Loops[d].Var,
			Lower: expr.Var(pos[d]),
			Upper: ir.MinBound(expr.VarPlus(pos[d], tile[d]-1), expr.Const(box.Hi[d])),
			Step:  1,
		})
	}
	// References keep their subscript functions, rewritten over the
	// element-loop variables (index d becomes k+d).
	for i := range nest.Refs {
		r := nest.Refs[i]
		subs := make([]expr.Affine, len(r.Subs))
		for s := range r.Subs {
			subs[s] = r.Subs[s].ShiftVars(k)
		}
		out.Refs[i] = ir.Ref{Array: r.Array, Subs: subs, Write: r.Write}
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("tiling: produced invalid nest: %w", err)
	}
	return out, iterspace.NewPermutedTiled(box, tile, order), nil
}

// positions inverts a loop order of a depth-k nest: pos[d] is the position
// of original loop d. It rejects an order that is not a permutation of
// 0..k-1.
func positions(order []int, k int) ([]int, error) {
	if len(order) != k {
		return nil, fmt.Errorf("tiling: order rank %d for depth-%d nest", len(order), k)
	}
	pos := make([]int, k)
	seen := make([]bool, k)
	for p, d := range order {
		if d < 0 || d >= k || seen[d] {
			return nil, fmt.Errorf("tiling: order %v is not a permutation", order)
		}
		seen[d] = true
		pos[d] = p
	}
	return pos, nil
}

// Untile returns the trivial tile vector that leaves the nest order
// unchanged (one tile per dimension).
func Untile(nest *ir.Nest) ([]int64, error) {
	box, err := Box(nest)
	if err != nil {
		return nil, err
	}
	tile := make([]int64, nest.Depth())
	for d := range tile {
		tile[d] = box.Extent(d)
	}
	return tile, nil
}

// Interchange permutes the loops of a rectangular nest without tiling —
// the pure loop-interchange transform (legal for the fully permutable
// nests analysed here). order[p] is the original loop at position p.
func Interchange(nest *ir.Nest, order []int) (*ir.Nest, *iterspace.PermutedBox, error) {
	box, err := Box(nest)
	if err != nil {
		return nil, nil, err
	}
	k := nest.Depth()
	pos, err := positions(order, k)
	if err != nil {
		return nil, nil, err
	}
	out := &ir.Nest{
		Name:  nest.Name + "_interchanged",
		Loops: make([]ir.Loop, k),
		Refs:  make([]ir.Ref, len(nest.Refs)),
	}
	// Loop at position p is original loop order[p]; variable index p in
	// the new nest carries original variable order[p], so subscripts remap
	// original variable d to new index pos[d].
	for p, d := range order {
		l := nest.Loops[d]
		out.Loops[p] = ir.Loop{Var: l.Var, Lower: l.Lower, Upper: l.Upper, Step: l.Step}
	}
	for i := range nest.Refs {
		r := nest.Refs[i]
		subs := make([]expr.Affine, len(r.Subs))
		for sIdx := range r.Subs {
			e := r.Subs[sIdx]
			// Remap variables: v_d -> v_pos[d]. Substitute via a fresh
			// expression to avoid index collisions.
			out2 := expr.Const(e.Const)
			for d := 0; d < k; d++ {
				if c := e.Coeff(d); c != 0 {
					out2 = out2.Add(expr.Term(pos[d], c, 0))
				}
			}
			subs[sIdx] = out2
		}
		out.Refs[i] = ir.Ref{Array: r.Array, Subs: subs, Write: r.Write}
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("tiling: produced invalid nest: %w", err)
	}
	return out, iterspace.NewPermutedBox(box, order), nil
}
