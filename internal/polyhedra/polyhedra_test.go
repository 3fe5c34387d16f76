package polyhedra

import (
	"testing"

	"repro/internal/expr"
)

func TestVarsAndString(t *testing.T) {
	s := NewSystem(3)
	s.AddGE(expr.VarPlus(0, -1))
	s.AddEQ(expr.Var(2))
	if s.String() != "{v0-1 >= 0 && v2 == 0}" {
		t.Fatalf("String = %q", s.String())
	}
	if got := s.Cons[0].StringVars([]string{"i"}); got != "i-1 >= 0" {
		t.Fatalf("StringVars = %q", got)
	}
}
