package ir

import (
	"strings"
	"testing"

	"repro/internal/expr"
)

// rectNest builds do i=1,ni { do j=1,nj { read b(i,j); write a(j,i) } }.
func rectNest(ni, nj int64) *Nest {
	a := &Array{Name: "a", Dims: []int64{nj, ni}, Elem: 8, Base: 0}
	b := &Array{Name: "b", Dims: []int64{ni, nj}, Elem: 8, Base: a.SizeBytes()}
	return &Nest{
		Name: "t2d",
		Loops: []Loop{
			{Var: "i", Lower: expr.Const(1), Upper: BoundOf(expr.Const(ni)), Step: 1},
			{Var: "j", Lower: expr.Const(1), Upper: BoundOf(expr.Const(nj)), Step: 1},
		},
		Refs: []Ref{
			{Array: b, Subs: []expr.Affine{expr.Var(0), expr.Var(1)}},
			{Array: a, Subs: []expr.Affine{expr.Var(1), expr.Var(0)}, Write: true},
		},
	}
}

func TestNestValidateAndShape(t *testing.T) {
	n := rectNest(10, 20)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if !n.IsRectangular() {
		t.Fatal("rectangular nest not detected")
	}
	if n.Depth() != 2 {
		t.Fatalf("Depth = %d", n.Depth())
	}
	arrays := n.Arrays()
	if len(arrays) != 2 || arrays[0].Name != "b" || arrays[1].Name != "a" {
		t.Fatalf("Arrays = %v", arrays)
	}
}

func TestNestValidateErrors(t *testing.T) {
	n := rectNest(10, 20)
	n.Loops[1].Step = 0
	if err := n.Validate(); err == nil {
		t.Fatal("zero step accepted")
	}
	n = rectNest(10, 20)
	n.Loops[0].Lower = expr.Var(1) // outer bound using inner var
	if err := n.Validate(); err == nil {
		t.Fatal("forward-referencing lower bound accepted")
	}
	n = rectNest(10, 20)
	n.Refs = nil
	if err := n.Validate(); err == nil {
		t.Fatal("empty body accepted")
	}
	if err := (&Nest{Name: "x", Refs: make([]Ref, 1)}).Validate(); err == nil {
		t.Fatal("empty loop list accepted")
	}
}

// TestNestValidateSubscriptExtent: a subscript that leaves its array over
// the loop bounds is rejected, naming the array, the subscript and its
// range; one that reaches the array's edge exactly is accepted, also in a
// strided loop and in a tiled element loop with a min bound.
func TestNestValidateSubscriptExtent(t *testing.T) {
	a := &Array{Name: "a", Dims: []int64{5, 28}, Elem: 8, Base: 4096}
	nest := &Nest{
		Name: "oob",
		Loops: []Loop{
			{Var: "i", Lower: expr.Const(3), Upper: BoundOf(expr.Const(7)), Step: 1},
			{Var: "j", Lower: expr.Const(1), Upper: BoundOf(expr.Const(28)), Step: 1},
		},
		Refs: []Ref{
			{Array: a, Subs: []expr.Affine{expr.Const(2), expr.VarPlus(0, -4)}},
			{Array: a, Subs: []expr.Affine{expr.Var(1), expr.Const(1)}},
		},
	}
	err := nest.Validate()
	if err == nil {
		t.Fatal("a(2,i-4) with i in [3,7] accepted")
	}
	for _, want := range []string{"array a", "i-4", "[-1, 3]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	// a(2,i-2) stays inside, but a(j,1) reaches row 28 of 5.
	nest.Refs[0].Subs[1] = expr.VarPlus(0, -2)
	if err := nest.Validate(); err == nil || !strings.Contains(err.Error(), "[1, 28]") {
		t.Fatalf("a(j,1) with j in [1,28] on a 5-row array: %v", err)
	}
	// With j in [28, 32], a(33-j,1) spans rows 5 down to 1 exactly.
	nest.Loops[1].Lower, nest.Loops[1].Upper = expr.Const(28), BoundOf(expr.Const(32))
	nest.Refs[1].Subs[0] = expr.Term(1, -1, 33)
	if err := nest.Validate(); err != nil {
		t.Fatalf("in-bounds nest rejected: %v", err)
	}
	// do i = 1, 10, 4 takes 1, 5, 9: a(i,1) fits 9 rows.
	b := &Array{Name: "b", Dims: []int64{9, 1}, Elem: 8}
	strided := &Nest{
		Name:  "strided",
		Loops: []Loop{{Var: "i", Lower: expr.Const(1), Upper: BoundOf(expr.Const(10)), Step: 4}},
		Refs:  []Ref{{Array: b, Subs: []expr.Affine{expr.Var(0), expr.Const(1)}}},
	}
	if err := strided.Validate(); err != nil {
		t.Fatalf("strided nest rejected: %v", err)
	}
	// do ii = 1, 9, 4 / do i = ii, min(ii+3, 9): i stays in [1, 9].
	tiled := &Nest{
		Name: "tiled",
		Loops: []Loop{
			{Var: "ii", Lower: expr.Const(1), Upper: BoundOf(expr.Const(9)), Step: 4},
			{Var: "i", Lower: expr.Var(0), Upper: MinBound(expr.VarPlus(0, 3), expr.Const(9)), Step: 1},
		},
		Refs: []Ref{{Array: b, Subs: []expr.Affine{expr.Var(1), expr.Const(1)}}},
	}
	if err := tiled.Validate(); err != nil {
		t.Fatalf("tiled nest rejected: %v", err)
	}
	tiled.Refs[0].Subs[0] = expr.VarPlus(1, 1)
	if err := tiled.Validate(); err == nil {
		t.Fatal("a(i+1,1) with i up to 9 accepted on a 9-row array")
	}
}

func TestBoundEval(t *testing.T) {
	b := MinBound(expr.VarPlus(0, 4), expr.Const(7))
	if got := b.Eval([]int64{1}); got != 5 {
		t.Fatalf("min(v0+4,7) at v0=1 = %d, want 5", got)
	}
	if got := b.Eval([]int64{10}); got != 7 {
		t.Fatalf("min(v0+4,7) at v0=10 = %d, want 7", got)
	}
	if b.IsConst() {
		t.Fatal("variable bound reported constant")
	}
	if s := b.StringVars([]string{"ii"}); s != "min(ii+4,7)" {
		t.Fatalf("Bound string = %q", s)
	}
}

func TestNonRectangularDetection(t *testing.T) {
	n := rectNest(10, 20)
	n.Loops[1].Upper = MinBound(expr.VarPlus(0, 3), expr.Const(20))
	if n.IsRectangular() {
		t.Fatal("min-bound nest reported rectangular")
	}
	n2 := rectNest(10, 20)
	n2.Loops[0].Step = 4
	if n2.IsRectangular() {
		t.Fatal("strided nest reported rectangular")
	}
}

func TestNestString(t *testing.T) {
	s := rectNest(3, 4).String()
	for _, want := range []string{"do i = 1, 3", "do j = 1, 4", "read  b(i,j)", "write a(j,i)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q in:\n%s", want, s)
		}
	}
}

func TestLayoutArrays(t *testing.T) {
	a := &Array{Name: "a", Dims: []int64{10}, Elem: 8}
	b := &Array{Name: "b", Dims: []int64{3}, Elem: 8}
	c := &Array{Name: "c", Dims: []int64{5}, Elem: 8}
	LayoutArrays(100, 32, a, b, c)
	if a.Base != 128 { // aligned up from 100
		t.Fatalf("a.Base = %d, want 128", a.Base)
	}
	if b.Base != 224 { // 128+80=208, aligned up to 224
		t.Fatalf("b.Base = %d, want 224", b.Base)
	}
	if c.Base != 256 { // 224+24=248, aligned up to 256
		t.Fatalf("c.Base = %d, want 256", c.Base)
	}
}
