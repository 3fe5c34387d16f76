package ir_test

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/ir"
	"repro/internal/tiling"
)

// FuzzNestValidate builds loop nests straight from fuzzer-chosen integers —
// including extents, bounds, pads and element sizes far outside anything
// the parser would produce — and checks that Validate never panics, that
// overflowing shapes are rejected, that every nest Validate accepts
// survives the downstream consumers (String, address arithmetic,
// tiling.Box) without panicking, and that its reference addresses only
// bytes of its array's footprint at every corner of its box.
func FuzzNestValidate(f *testing.F) {
	f.Add(int64(100), int64(100), int64(8), int64(0), int64(1), int64(99), int64(1), int64(0))
	f.Add(int64(1)<<45, int64(1)<<45, int64(8), int64(3), int64(1), int64(50), int64(2), int64(-7))
	f.Add(int64(0), int64(-4), int64(-8), int64(-64), int64(5), int64(2), int64(0), int64(1)<<41)
	f.Add(int64(1), int64(1), int64(1), int64(1)<<46, int64(1), int64(1), int64(1), int64(1))
	f.Fuzz(func(t *testing.T, dim0, dim1, elem, pad0, lo, hi, coef, cnst int64) {
		arr := &ir.Array{
			Name: "a",
			Dims: []int64{dim0, dim1},
			Elem: elem,
			Pad:  []int64{pad0, 0},
		}
		nest := &ir.Nest{
			Name: "fuzz",
			Loops: []ir.Loop{
				{Var: "i", Lower: expr.Const(lo), Upper: ir.BoundOf(expr.Const(hi)), Step: 1},
				{Var: "j", Lower: expr.Const(lo), Upper: ir.BoundOf(expr.Const(hi)), Step: 1},
			},
			Refs: []ir.Ref{{
				Array: arr,
				Subs:  []expr.Affine{expr.Term(0, coef, cnst), expr.VarPlus(1, 0)},
			}},
		}
		if err := nest.Validate(); err != nil {
			return // rejected cleanly — that is the contract for bad shapes
		}
		// Accepted nests must be safe for every downstream consumer.
		_ = nest.String()
		_ = arr.SizeBytes()
		_ = arr.Strides()
		if subs, ok := arr.Delinearize(arr.LinearIndex([]int64{1, 1})); ok {
			if subs[0] != 1 || subs[1] != 1 {
				t.Fatalf("Delinearize(LinearIndex(1,1)) = %v", subs)
			}
		}
		box, err := tiling.Box(nest)
		if err != nil {
			return // e.g. empty loop range — a clean rejection
		}
		start := arr.Base + arr.BasePad
		for _, corner := range [][]int64{{lo, lo}, {lo, hi}, {hi, lo}, {hi, hi}} {
			addr := nest.Refs[0].Address(corner)
			if addr < start || addr > start+arr.SizeBytes()-arr.Elem {
				t.Fatalf("accepted %v addresses byte %d at %v, outside [%d, %d)",
					nest.Refs[0].String(), addr, corner, start, start+arr.SizeBytes())
			}
		}
		if box.Extent(0) != hi-lo+1 {
			t.Fatalf("box extent %d, want %d", box.Extent(0), hi-lo+1)
		}
		if _, _, err := tiling.Apply(nest, []int64{1, 1}); err != nil {
			t.Fatalf("tiling a validated rectangular nest: %v", err)
		}
	})
}
