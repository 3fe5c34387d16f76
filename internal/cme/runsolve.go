package cme

import "math/bits"

// The direct-mapped walk solves the rest of an innermost run in closed
// form instead of scanning it point by point. Inside one run only the last
// coordinate changes, so a reference with coefficient coef on it touches
// a − s·coef when the walk stands s points before the point where it
// touched a: an arithmetic progression. The walk stops at the first
// position whose address lands in the target set, i.e. whose address
// modulo C = NumSets·LineSize lies in the set's byte window — the paper's
// replacement equation (§2.1) restricted to one loop, a linear congruence
// per reference. C is a power of two (cache.Config.Validate), so the
// congruence is solved with a modular inverse computed once per bind and
// no division at walk time.

const (
	// solveScanPoints is how many whole points of a run the walk scans
	// before it solves the rest. At least one: the references that ignore
	// the last coordinate are constant over the run, so the solve relies
	// on a scanned point of the same run having checked them.
	solveScanPoints = 1
	// solveMinRemaining is the fewest points that must remain in the run
	// below the scanned points for a solve to pay; shorter rests are
	// scanned.
	solveMinRemaining = 4
)

// runSolve is one reference's congruence over an innermost run, for a
// reference whose address depends on the last coordinate. One point back
// its address moves by d = (−coef) mod C; g = gcd(d, C) = 2^shift (C when
// d = 0), and inv is the inverse of d/g modulo C/g, so k·d ≡ t (mod C) has
// the solutions k ≡ (t/g)·inv (mod C/g) whenever g divides t.
type runSolve struct {
	ref   int
	coef  int64
	gmask int64 // g − 1
	shift uint  // log2 g
	inv   int64 // (d/g)⁻¹ mod C/g
	mmask int64 // C/g − 1
}

// newRunSolve precomputes the congruence of the reference ref with
// coefficient coef on the last coordinate, for a power-of-two modulus c.
func newRunSolve(ref int, coef, c int64) runSolve {
	d := -coef & (c - 1)
	shift := uint(bits.TrailingZeros64(uint64(c)))
	if d != 0 {
		shift = uint(bits.TrailingZeros64(uint64(d)))
	}
	mmask := c>>shift - 1
	return runSolve{
		ref:   ref,
		coef:  coef,
		gmask: 1<<shift - 1,
		shift: shift,
		inv:   int64(oddInverse(uint64(d>>shift))) & mmask,
		mmask: mmask,
	}
}

// oddInverse returns the inverse of an odd x modulo 2⁶⁴ by Newton's
// iteration: x is its own inverse modulo 8, and each step doubles the
// number of correct low bits (3, 6, 12, 24, 48, 96). For x = 0 (d = 0) it
// returns 0, the only residue modulo 1.
func oddInverse(x uint64) uint64 {
	y := x
	for range 5 {
		y *= 2 - x*y
	}
	return y
}

// first returns the least k ≥ 0 at which b + k·d lands in the window
// [lo, hi] modulo C, where b is the reference's address modulo C one
// point back (k = 0), and lo..hi lies inside [0, C). It returns −1 when no
// k does: no residue of the window is congruent to b modulo g.
//
// Each t of the window with t ≡ b (mod g) is reached at
// k_t = ((t − b)/g)·inv mod C/g; consecutive such t lie g apart, so their
// k_t step by inv. The window holds at most LineSize/g of them.
func (rs *runSolve) first(b, lo, hi int64) int64 {
	t := lo + (b-lo)&rs.gmask
	if t > hi {
		return -1
	}
	k := (t - b) >> rs.shift * rs.inv & rs.mmask
	best := k
	for n := (hi - t) >> rs.shift; n > 0 && best > 0; n-- {
		k = (k + rs.inv) & rs.mmask
		best = min(best, k)
	}
	return best
}

// solveRun solves where the direct-mapped walk stops in the rem points
// that remain of the current innermost run below the walk point, which
// the walk has just scanned whole without meeting the target set. It
// returns the stop as s points back (1 ≤ s ≤ rem) and the index into
// runRefs of the reference the walk meets there: among references landing
// at the same s the walk meets the highest reference index first, and
// runRefs is in reference order. s = 0 means no reference lands in the
// set before the run ends; s < 0 means some address could be negative in
// the stretch (or the target set is), where the shift-and-mask set test
// does not hold, so the run must be scanned.
func (a *Analyzer) solveRun(set, rem int64) (s int64, j int) {
	if set < 0 {
		return -1, 0
	}
	lo := set << a.lineShift
	hi := lo + a.cfg.LineSize - 1
	live := a.liveAddr
	best := rem
	for i := range a.runRefs {
		rs := &a.runRefs[i]
		x := live[rs.ref] - rs.coef
		if x < 0 || x-(rem-1)*rs.coef < 0 {
			return -1, 0
		}
		if k := rs.first(x&a.cmask, lo, hi); k >= 0 && k <= best && k < rem {
			best, j, s = k, i, k+1
		}
	}
	return s, j
}
