// Package expr provides affine integer expressions over loop variables.
//
// An affine expression has the form c0 + c1*v1 + ... + cn*vn where the vi
// are loop variables identified by their depth index in a loop nest. Affine
// expressions are the common currency of the whole analysis: array
// subscripts, loop bounds and cache-miss-equation terms are all affine.
package expr

import (
	"fmt"
	"strings"
)

// Affine is an affine expression c0 + sum(Coeffs[i] * var_i). Coeffs may be
// shorter than the number of variables in scope; missing entries are zero.
// The zero value is the constant 0.
type Affine struct {
	Const  int64
	Coeffs []int64
}

// Const returns the affine expression with constant value c.
func Const(c int64) Affine { return Affine{Const: c} }

// Var returns the affine expression 1*v_i for variable index i.
func Var(i int) Affine {
	c := make([]int64, i+1)
	c[i] = 1
	return Affine{Coeffs: c}
}

// VarPlus returns v_i + c, the most common subscript form.
func VarPlus(i int, c int64) Affine {
	a := Var(i)
	a.Const = c
	return a
}

// Term returns coef*v_i + c.
func Term(i int, coef, c int64) Affine {
	cs := make([]int64, i+1)
	cs[i] = coef
	return Affine{Const: c, Coeffs: cs}
}

// Coeff returns the coefficient of variable i (zero if absent).
func (a Affine) Coeff(i int) int64 {
	if i < len(a.Coeffs) {
		return a.Coeffs[i]
	}
	return 0
}

// NumVars returns one past the highest variable index with a nonzero
// coefficient.
func (a Affine) NumVars() int {
	for i := len(a.Coeffs) - 1; i >= 0; i-- {
		if a.Coeffs[i] != 0 {
			return i + 1
		}
	}
	return 0
}

// IsConst reports whether the expression has no variable terms.
func (a Affine) IsConst() bool { return a.NumVars() == 0 }

// Add returns a+b.
func (a Affine) Add(b Affine) Affine {
	n := max(len(a.Coeffs), len(b.Coeffs))
	c := make([]int64, n)
	copy(c, a.Coeffs)
	for i, v := range b.Coeffs {
		c[i] += v
	}
	return Affine{Const: a.Const + b.Const, Coeffs: c}
}

// Sub returns a-b.
func (a Affine) Sub(b Affine) Affine { return a.Add(b.Scale(-1)) }

// Scale returns k*a.
func (a Affine) Scale(k int64) Affine {
	c := make([]int64, len(a.Coeffs))
	for i, v := range a.Coeffs {
		c[i] = k * v
	}
	return Affine{Const: k * a.Const, Coeffs: c}
}

// AddConst returns a+c.
func (a Affine) AddConst(c int64) Affine {
	out := a
	out.Coeffs = append([]int64(nil), a.Coeffs...)
	out.Const += c
	return out
}

// Eval evaluates the expression at the given point. The point must cover
// every variable the expression references.
func (a Affine) Eval(point []int64) int64 {
	v := a.Const
	for i, c := range a.Coeffs {
		if c != 0 {
			v += c * point[i]
		}
	}
	return v
}

// ShiftVars returns the expression with every variable index increased by d.
// It is used when embedding an expression written over inner loop variables
// into a nest with d additional outer loops.
func (a Affine) ShiftVars(d int) Affine {
	if a.IsConst() {
		return Affine{Const: a.Const}
	}
	c := make([]int64, len(a.Coeffs)+d)
	copy(c[d:], a.Coeffs)
	return Affine{Const: a.Const, Coeffs: c}
}

// Equal reports structural equality (same constant and coefficients).
func (a Affine) Equal(b Affine) bool {
	if a.Const != b.Const {
		return false
	}
	n := max(len(a.Coeffs), len(b.Coeffs))
	for i := 0; i < n; i++ {
		if a.Coeff(i) != b.Coeff(i) {
			return false
		}
	}
	return true
}

// SingleVar reports whether the expression is of the form coef*v + c with
// exactly one variable, returning that variable's index and coefficient.
func (a Affine) SingleVar() (idx int, coef int64, ok bool) {
	idx = -1
	for i, c := range a.Coeffs {
		if c == 0 {
			continue
		}
		if idx >= 0 {
			return -1, 0, false
		}
		idx, coef = i, c
	}
	return idx, coef, idx >= 0
}

// String renders the expression using variable names v0, v1, ...
func (a Affine) String() string { return a.StringVars(nil) }

// StringVars renders the expression using the provided variable names,
// falling back to v<i> when names run out.
func (a Affine) StringVars(names []string) string {
	var b strings.Builder
	first := true
	for i, c := range a.Coeffs {
		if c == 0 {
			continue
		}
		name := fmt.Sprintf("v%d", i)
		if i < len(names) {
			name = names[i]
		}
		switch {
		case first && c == 1:
			b.WriteString(name)
		case first && c == -1:
			b.WriteString("-" + name)
		case first:
			fmt.Fprintf(&b, "%d*%s", c, name)
		case c == 1:
			b.WriteString("+" + name)
		case c == -1:
			b.WriteString("-" + name)
		case c > 0:
			fmt.Fprintf(&b, "+%d*%s", c, name)
		default:
			fmt.Fprintf(&b, "%d*%s", c, name)
		}
		first = false
	}
	if first {
		return fmt.Sprintf("%d", a.Const)
	}
	if a.Const > 0 {
		fmt.Fprintf(&b, "+%d", a.Const)
	} else if a.Const < 0 {
		fmt.Fprintf(&b, "%d", a.Const)
	}
	return b.String()
}
