// Package polyhedra holds the integer linear-constraint systems that Cache
// Miss Equations are written as: conjunctions of affine equalities and
// inequalities over loop (and auxiliary) variables. The equation generator
// (internal/cme) builds them and cmereport prints them; no miss is decided
// from them.
package polyhedra

import (
	"fmt"
	"strings"

	"repro/internal/expr"
)

// Kind distinguishes constraint forms.
type Kind int

const (
	// GE is "expr ≥ 0".
	GE Kind = iota
	// EQ is "expr = 0".
	EQ
)

// Constraint is one affine constraint over the system's variables.
type Constraint struct {
	Kind Kind
	Expr expr.Affine
}

func (c Constraint) String() string { return c.StringVars(nil) }

// StringVars renders the constraint with variable names.
func (c Constraint) StringVars(names []string) string {
	op := ">="
	if c.Kind == EQ {
		op = "=="
	}
	return fmt.Sprintf("%s %s 0", c.Expr.StringVars(names), op)
}

// System is a conjunction of constraints over NumVars integer variables.
type System struct {
	NumVars int
	Cons    []Constraint
}

// NewSystem creates an empty system over n variables.
func NewSystem(n int) *System { return &System{NumVars: n} }

// AddGE appends the constraint e ≥ 0.
func (s *System) AddGE(e expr.Affine) { s.Cons = append(s.Cons, Constraint{GE, e}) }

// AddEQ appends the constraint e = 0.
func (s *System) AddEQ(e expr.Affine) { s.Cons = append(s.Cons, Constraint{EQ, e}) }

// AddRange appends lo ≤ v_i ≤ hi.
func (s *System) AddRange(i int, lo, hi int64) {
	s.AddGE(expr.VarPlus(i, -lo)) // v - lo >= 0
	s.AddGE(expr.Term(i, -1, hi)) // hi - v >= 0
}

func (s *System) String() string { return s.StringVars(nil) }

// StringVars renders the system with variable names; a variable past the
// end of names prints as v<index>.
func (s *System) StringVars(names []string) string {
	parts := make([]string, len(s.Cons))
	for i, c := range s.Cons {
		parts[i] = c.StringVars(names)
	}
	return "{" + strings.Join(parts, " && ") + "}"
}
