package ir

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/expr"
)

// Bound is an upper loop bound: the minimum over one or more affine
// expressions of outer loop variables. Original rectangular loops have a
// single constant expression; tiled loops acquire min(ii+T-1, U) bounds.
type Bound struct {
	Exprs []expr.Affine
}

// BoundOf returns a single-expression bound.
func BoundOf(e expr.Affine) Bound { return Bound{Exprs: []expr.Affine{e}} }

// MinBound returns the bound min(a, b).
func MinBound(a, b expr.Affine) Bound { return Bound{Exprs: []expr.Affine{a, b}} }

// Eval evaluates the bound at the given (partial) point: the minimum of the
// component expressions.
func (b Bound) Eval(point []int64) int64 {
	v := b.Exprs[0].Eval(point)
	for _, e := range b.Exprs[1:] {
		if w := e.Eval(point); w < v {
			v = w
		}
	}
	return v
}

// IsConst reports whether every component expression is constant.
func (b Bound) IsConst() bool {
	for _, e := range b.Exprs {
		if !e.IsConst() {
			return false
		}
	}
	return true
}

// String renders the bound.
func (b Bound) String() string { return b.StringVars(nil) }

// StringVars renders the bound with loop-variable names.
func (b Bound) StringVars(names []string) string {
	if len(b.Exprs) == 1 {
		return b.Exprs[0].StringVars(names)
	}
	parts := make([]string, len(b.Exprs))
	for i, e := range b.Exprs {
		parts[i] = e.StringVars(names)
	}
	return "min(" + strings.Join(parts, ",") + ")"
}

// Loop is one loop of a perfect nest: for Var := Lower; Var <= Upper; Var += Step.
// Lower may reference outer loop variables; Upper is a min-bound over affine
// expressions of outer variables. Step must be positive.
type Loop struct {
	Var   string
	Lower expr.Affine
	Upper Bound
	Step  int64
}

// Nest is a perfectly nested affine loop nest: the loops from outermost to
// innermost, and the memory references of the (single) innermost body in
// program order.
type Nest struct {
	Name  string
	Loops []Loop
	Refs  []Ref
}

// Depth returns the number of loops.
func (n *Nest) Depth() int { return len(n.Loops) }

// VarNames returns the loop variable names outermost-first.
func (n *Nest) VarNames() []string {
	names := make([]string, len(n.Loops))
	for i, l := range n.Loops {
		names[i] = l.Var
	}
	return names
}

// Arrays returns the distinct arrays referenced by the nest, in first-use
// order.
func (n *Nest) Arrays() []*Array {
	var out []*Array
	seen := map[*Array]bool{}
	for i := range n.Refs {
		a := n.Refs[i].Array
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// MaxBoundMagnitude caps the constants and coefficients of loop bounds and
// subscripts. Iteration counts, extents and subscript evaluations multiply
// these against each other and against array strides (themselves under
// MaxArrayBytes); the cap keeps every such product inside int64.
const MaxBoundMagnitude = int64(1) << 40

// affineInRange reports whether every constant and coefficient of e has
// magnitude at most MaxBoundMagnitude.
func affineInRange(e expr.Affine) bool {
	if e.Const > MaxBoundMagnitude || e.Const < -MaxBoundMagnitude {
		return false
	}
	for _, c := range e.Coeffs {
		if c > MaxBoundMagnitude || c < -MaxBoundMagnitude {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants of the nest, including the
// MaxBoundMagnitude overflow caps on bounds and subscripts, and that every
// subscript stays inside its array's declared extent (see inExtent).
func (n *Nest) Validate() error {
	if len(n.Loops) == 0 {
		return fmt.Errorf("nest %s: no loops", n.Name)
	}
	if len(n.Refs) == 0 {
		return fmt.Errorf("nest %s: no references", n.Name)
	}
	for d, l := range n.Loops {
		if l.Step <= 0 {
			return fmt.Errorf("nest %s: loop %s step %d (must be positive)", n.Name, l.Var, l.Step)
		}
		if l.Step > MaxBoundMagnitude {
			return fmt.Errorf("nest %s: loop %s step %d overflows the bound cap", n.Name, l.Var, l.Step)
		}
		if l.Lower.NumVars() > d {
			return fmt.Errorf("nest %s: loop %s lower bound references inner variable", n.Name, l.Var)
		}
		if !affineInRange(l.Lower) {
			return fmt.Errorf("nest %s: loop %s lower bound overflows the bound cap", n.Name, l.Var)
		}
		if len(l.Upper.Exprs) == 0 {
			return fmt.Errorf("nest %s: loop %s has no upper bound", n.Name, l.Var)
		}
		for _, e := range l.Upper.Exprs {
			if e.NumVars() > d {
				return fmt.Errorf("nest %s: loop %s upper bound references inner variable", n.Name, l.Var)
			}
			if !affineInRange(e) {
				return fmt.Errorf("nest %s: loop %s upper bound overflows the bound cap", n.Name, l.Var)
			}
		}
	}
	for i := range n.Refs {
		if err := n.Refs[i].Validate(len(n.Loops)); err != nil {
			return fmt.Errorf("nest %s: %w", n.Name, err)
		}
		if err := n.Refs[i].Array.Validate(); err != nil {
			return fmt.Errorf("nest %s: %w", n.Name, err)
		}
	}
	return n.inExtent()
}

// span is the closed integer interval [lo, hi].
type span struct{ lo, hi int64 }

// inExtent rejects a reference whose subscript d, taken over the loop
// bounds, leaves [1, Dims[d]]. Each loop variable gets the interval its
// bounds allow over the outer variables' intervals: exact for constant
// bounds and for the min(ii+T−1, U) element loops of tiling, a superset
// otherwise. A subscript's interval over those is then exact for the
// rectangular and tiled nests. A nest with a loop that never runs makes no
// access and passes.
func (n *Nest) inExtent() error {
	vars := make([]span, len(n.Loops))
	for d, l := range n.Loops {
		v, ok := spanOf(l.Lower, vars)
		v.hi = math.MaxInt64
		for _, e := range l.Upper.Exprs {
			up, upOK := spanOf(e, vars)
			ok = ok && upOK
			v.hi = min(v.hi, up.hi)
		}
		if !ok {
			return fmt.Errorf("nest %s: loop %s bounds overflow int64", n.Name, l.Var)
		}
		if v.lo > v.hi {
			return nil
		}
		if l.Lower.IsConst() {
			// The values are lo, lo+Step, ...; the last one is the maximum.
			v.hi -= int64((uint64(v.hi) - uint64(v.lo)) % uint64(l.Step))
		}
		vars[d] = v
	}
	for i := range n.Refs {
		r := &n.Refs[i]
		for d, sub := range r.Subs {
			sp, ok := spanOf(sub, vars)
			if ok && sp.lo >= 1 && sp.hi <= r.Array.Dims[d] {
				continue
			}
			names := n.VarNames()
			if !ok {
				return fmt.Errorf("nest %s: %s: subscript %s overflows int64",
					n.Name, r.StringVars(names), sub.StringVars(names))
			}
			return fmt.Errorf("nest %s: %s: subscript %s ranges over [%d, %d], outside [1, %d] of array %s",
				n.Name, r.StringVars(names), sub.StringVars(names), sp.lo, sp.hi, r.Array.Dims[d], r.Array.Name)
		}
	}
	return nil
}

// spanOf returns the interval e takes while each variable v ranges over
// vars[v], and false when an end of it overflows int64.
func spanOf(e expr.Affine, vars []span) (span, bool) {
	out := span{e.Const, e.Const}
	for v, c := range e.Coeffs {
		if c == 0 {
			continue
		}
		lo, loOK := mulInt64(c, vars[v].lo)
		hi, hiOK := mulInt64(c, vars[v].hi)
		if c < 0 {
			lo, hi = hi, lo
		}
		var sumLoOK, sumHiOK bool
		out.lo, sumLoOK = addInt64(out.lo, lo)
		out.hi, sumHiOK = addInt64(out.hi, hi)
		if !loOK || !hiOK || !sumLoOK || !sumHiOK {
			return span{}, false
		}
	}
	return out, true
}

// mulInt64 returns c·x and whether it fits in int64. c is a capped
// coefficient, never math.MinInt64.
func mulInt64(c, x int64) (int64, bool) {
	p := c * x
	return p, x == 0 || p/x == c
}

// addInt64 returns a+b and whether it fits in int64.
func addInt64(a, b int64) (int64, bool) {
	s := a + b
	return s, (s < a) == (b < 0)
}

// IsRectangular reports whether every loop has constant bounds and step 1:
// the form the original (untiled) kernels take.
func (n *Nest) IsRectangular() bool {
	for _, l := range n.Loops {
		if l.Step != 1 || !l.Lower.IsConst() || !l.Upper.IsConst() || len(l.Upper.Exprs) != 1 {
			return false
		}
	}
	return true
}

// String renders the nest as pseudo-Fortran for diagnostics.
func (n *Nest) String() string {
	names := n.VarNames()
	var b strings.Builder
	for d, l := range n.Loops {
		fmt.Fprintf(&b, "%sdo %s = %s, %s", strings.Repeat("  ", d),
			l.Var, l.Lower.StringVars(names), l.Upper.StringVars(names))
		if l.Step != 1 {
			fmt.Fprintf(&b, ", %d", l.Step)
		}
		b.WriteByte('\n')
	}
	ind := strings.Repeat("  ", len(n.Loops))
	for i := range n.Refs {
		r := &n.Refs[i]
		mode := "read "
		if r.Write {
			mode = "write"
		}
		fmt.Fprintf(&b, "%s%s %s\n", ind, mode, r.StringVars(names))
	}
	return b.String()
}

// LayoutArrays assigns consecutive base addresses to the given arrays
// starting at base, each aligned up to align bytes (align must be a power
// of two, typically the cache line size). It mirrors a simple static linker
// placing Fortran COMMON arrays back to back.
func LayoutArrays(base, align int64, arrays ...*Array) {
	addr := base
	for _, a := range arrays {
		if align > 0 {
			addr = (addr + align - 1) &^ (align - 1)
		}
		a.Base = addr
		addr += a.SizeBytes()
	}
}
