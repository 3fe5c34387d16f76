package expr

import (
	"math/rand/v2"
	"testing"
)

func TestConstAndVar(t *testing.T) {
	c := Const(7)
	if !c.IsConst() || c.Eval(nil) != 7 {
		t.Fatalf("Const(7) = %v", c)
	}
	v := Var(2)
	if got := v.Eval([]int64{1, 2, 3}); got != 3 {
		t.Fatalf("Var(2).Eval = %d, want 3", got)
	}
	if v.NumVars() != 3 {
		t.Fatalf("NumVars = %d, want 3", v.NumVars())
	}
}

func TestVarPlusAndTerm(t *testing.T) {
	a := VarPlus(1, -1) // v1 - 1
	if got := a.Eval([]int64{10, 20}); got != 19 {
		t.Fatalf("VarPlus eval = %d, want 19", got)
	}
	b := Term(0, 3, 5) // 3*v0 + 5
	if got := b.Eval([]int64{4}); got != 17 {
		t.Fatalf("Term eval = %d, want 17", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a := VarPlus(0, 2) // v0+2
	b := Term(1, 3, 1) // 3*v1+1
	sum := a.Add(b)
	pt := []int64{5, 7}
	if got, want := sum.Eval(pt), a.Eval(pt)+b.Eval(pt); got != want {
		t.Fatalf("Add eval = %d, want %d", got, want)
	}
	diff := a.Sub(b)
	if got, want := diff.Eval(pt), a.Eval(pt)-b.Eval(pt); got != want {
		t.Fatalf("Sub eval = %d, want %d", got, want)
	}
	sc := a.Scale(-4)
	if got, want := sc.Eval(pt), -4*a.Eval(pt); got != want {
		t.Fatalf("Scale eval = %d, want %d", got, want)
	}
}

func TestShiftVars(t *testing.T) {
	a := VarPlus(0, 1).Add(Term(1, 2, 0)) // v0 + 2*v1 + 1
	s := a.ShiftVars(2)
	if got := s.Eval([]int64{0, 0, 3, 4}); got != 3+8+1 {
		t.Fatalf("ShiftVars eval = %d, want 12", got)
	}
	c := Const(9).ShiftVars(3)
	if !c.IsConst() || c.Const != 9 {
		t.Fatalf("shifting a constant changed it: %v", c)
	}
}

func TestSingleVar(t *testing.T) {
	a := Term(3, -2, 7)
	idx, coef, ok := a.SingleVar()
	if !ok || idx != 3 || coef != -2 {
		t.Fatalf("SingleVar = %d,%d,%v", idx, coef, ok)
	}
	if _, _, ok := Const(1).SingleVar(); ok {
		t.Fatal("constant reported as single-var")
	}
	if _, _, ok := Var(0).Add(Var(1)).SingleVar(); ok {
		t.Fatal("two-var expression reported as single-var")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		a    Affine
		want string
	}{
		{Const(0), "0"},
		{Const(-3), "-3"},
		{Var(0), "v0"},
		{VarPlus(1, -1), "v1-1"},
		{Term(0, 2, 3), "2*v0+3"},
		{Var(0).Scale(-1), "-v0"},
		{Var(0).Add(Var(1).Scale(-1)), "v0-v1"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.a, got, c.want)
		}
	}
	named := VarPlus(0, 1).StringVars([]string{"i"})
	if named != "i+1" {
		t.Errorf("StringVars = %q, want i+1", named)
	}
}

func randAffine(r *rand.Rand, nvars int) Affine {
	a := Const(r.Int64N(21) - 10)
	for i := 0; i < nvars; i++ {
		a = a.Add(Term(i, r.Int64N(11)-5, 0))
	}
	return a
}

// Property: Add/Sub/Scale agree with pointwise arithmetic on random points.
func TestAffineArithmeticProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for iter := 0; iter < 200; iter++ {
		nv := 1 + int(r.Int64N(5))
		a, b := randAffine(r, nv), randAffine(r, nv)
		pt := make([]int64, nv)
		for i := range pt {
			pt[i] = r.Int64N(2001) - 1000
		}
		if a.Add(b).Eval(pt) != a.Eval(pt)+b.Eval(pt) {
			t.Fatal("Add property violated")
		}
		if a.Sub(b).Eval(pt) != a.Eval(pt)-b.Eval(pt) {
			t.Fatal("Sub property violated")
		}
		k := r.Int64N(9) - 4
		if a.Scale(k).Eval(pt) != k*a.Eval(pt) {
			t.Fatal("Scale property violated")
		}
	}
}
