package expr

import "testing"

// FuzzAffine checks the algebraic identities of Affine on arbitrary
// expressions, scales and evaluation points. The operations are
// coefficient-wise int64 arithmetic, so the identities hold modulo 2^64
// even when individual terms overflow; overflow *rejection* happens at the
// ir.Validate layer, not here. String and Eval must never panic on any
// well-indexed input.
func FuzzAffine(f *testing.F) {
	f.Add(int64(0), int64(1), int64(-1), int64(3), int64(2), int64(5), int64(7), uint8(1), int64(-9))
	f.Add(int64(1)<<62, int64(1)<<62, int64(-1)<<62, int64(9), int64(-3), int64(4), int64(-11), uint8(0), int64(1))
	f.Add(int64(-5), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), uint8(7), int64(2))
	f.Fuzz(func(t *testing.T, ac, a0, a1, bc, b0, b1, k int64, vi uint8, p int64) {
		a := Affine{Const: ac, Coeffs: []int64{a0, a1}}
		b := Affine{Const: bc, Coeffs: []int64{b0, b1}}
		point := []int64{p, p - k}

		sum := a.Add(b)
		if got, want := sum.Eval(point), a.Eval(point)+b.Eval(point); got != want {
			t.Fatalf("Add: eval %d, want %d", got, want)
		}
		diff := a.Sub(b)
		if got, want := diff.Eval(point), a.Eval(point)-b.Eval(point); got != want {
			t.Fatalf("Sub: eval %d, want %d", got, want)
		}
		if !diff.Add(b).Equal(a) {
			t.Fatalf("Sub then Add is not identity: %v", diff.Add(b))
		}
		scaled := a.Scale(k)
		if got, want := scaled.Eval(point), k*a.Eval(point); got != want {
			t.Fatalf("Scale: eval %d, want %d", got, want)
		}
		if got, want := a.AddConst(k).Eval(point), a.Eval(point)+k; got != want {
			t.Fatalf("AddConst: eval %d, want %d", got, want)
		}

		// Shifting by d moves every coefficient up d slots.
		d := int(vi % 4)
		shifted := a.ShiftVars(d)
		wide := make([]int64, d+len(point))
		copy(wide[d:], point)
		if got, want := shifted.Eval(wide), a.Eval(point); got != want {
			t.Fatalf("ShiftVars(%d): eval %d, want %d", d, got, want)
		}
		for i := 0; i < d; i++ {
			if shifted.Coeff(i) != 0 {
				t.Fatalf("ShiftVars(%d): nonzero low coefficient in %v", d, shifted)
			}
		}

		// Renderers and predicates must not panic, and IsConst must agree
		// with NumVars.
		_ = a.String()
		_ = sum.StringVars([]string{"i"})
		if a.IsConst() != (a.NumVars() == 0) {
			t.Fatalf("IsConst/NumVars disagree on %v", a)
		}
		if idx, coef, ok := a.SingleVar(); ok {
			if a.Coeff(idx) != coef || coef == 0 {
				t.Fatalf("SingleVar returned (%d,%d) for %v", idx, coef, a)
			}
		}
	})
}
