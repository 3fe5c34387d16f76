package sampling

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/cme"
	"repro/internal/expr"
	"repro/internal/ir"
	"repro/internal/iterspace"
)

// TestPaperSampleSize reproduces §2.3: width 0.1 at 90% confidence needs
// 164 points.
func TestPaperSampleSize(t *testing.T) {
	n := SampleSize(0.1, 0.90)
	if n != PaperSampleSize {
		t.Fatalf("SampleSize(0.1, 0.90) = %d, want %d", n, PaperSampleSize)
	}
	// Tighter intervals need more points; higher confidence too.
	if SampleSize(0.05, 0.90) <= n {
		t.Fatal("halving the width should increase the sample size")
	}
	if SampleSize(0.1, 0.95) <= n {
		t.Fatal("raising confidence should increase the sample size")
	}
}

func TestSampleSizePanics(t *testing.T) {
	for _, c := range [][2]float64{{0, 0.9}, {0.1, 0}, {0.1, 1}, {2, 0.9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SampleSize(%v, %v): expected panic", c[0], c[1])
				}
			}()
			SampleSize(c[0], c[1])
		}()
	}
}

func TestZQuantile(t *testing.T) {
	// Φ⁻¹(0.975) = 1.95996...
	if z := zQuantile(0.975); math.Abs(z-1.95996) > 1e-4 {
		t.Fatalf("zQuantile(0.975) = %v", z)
	}
	if z := zQuantile(0.5); math.Abs(z) > 1e-12 {
		t.Fatalf("zQuantile(0.5) = %v", z)
	}
}

func transposeAnalyzer(t *testing.T, n int64, tile []int64) *cme.Analyzer {
	t.Helper()
	a := &ir.Array{Name: "a", Dims: []int64{n, n}, Elem: 8}
	b := &ir.Array{Name: "b", Dims: []int64{n, n}, Elem: 8}
	ir.LayoutArrays(0, 32, a, b)
	nest := &ir.Nest{
		Name: "t2d",
		Loops: []ir.Loop{
			{Var: "i", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(n)), Step: 1},
			{Var: "j", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(n)), Step: 1},
		},
		Refs: []ir.Ref{
			{Array: b, Subs: []expr.Affine{expr.Var(0), expr.Var(1)}},
			{Array: a, Subs: []expr.Affine{expr.Var(1), expr.Var(0)}, Write: true},
		},
	}
	box := iterspace.NewBox([]int64{1, 1}, []int64{n, n})
	var sp iterspace.Space = box
	if tile != nil {
		sp = iterspace.NewTiled(box, tile)
	}
	an, err := cme.NewAnalyzer(nest, sp, cache.DM8K)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// analyzers returns an plus n-1 clones of it: one analyzer per
// EvaluateWith worker.
func analyzers(an *cme.Analyzer, n int) []*cme.Analyzer {
	ans := []*cme.Analyzer{an}
	for len(ans) < n {
		ans = append(ans, an.Clone())
	}
	return ans
}

// TestEstimateWithinInterval: the sampled estimate brackets the exact
// exhaustive ratio for a kernel small enough to enumerate.
func TestEstimateWithinInterval(t *testing.T) {
	an := transposeAnalyzer(t, 64, nil)
	exact := an.ExhaustiveStats()
	rng := rand.New(rand.NewPCG(101, 103))
	est := EstimateMissRatio(an, 400, 0.90, rng)
	lo, hi := est.Interval()
	if exact.MissRatio() < lo-0.05 || exact.MissRatio() > hi+0.05 {
		t.Fatalf("exact ratio %.3f far outside interval [%.3f, %.3f]", exact.MissRatio(), lo, hi)
	}
	if est.Points != 400 || est.Stats.Accesses != 800 {
		t.Fatalf("estimate bookkeeping: %+v", est)
	}
	if est.String() == "" {
		t.Fatal("empty String")
	}
}

// TestEstimateConvergence: estimates from disjoint seeds agree within the
// combined interval width.
func TestEstimateConvergence(t *testing.T) {
	an := transposeAnalyzer(t, 128, nil)
	e1 := EstimateMissRatio(an, PaperSampleSize, 0.90, rand.New(rand.NewPCG(1, 1)))
	e2 := EstimateMissRatio(an, PaperSampleSize, 0.90, rand.New(rand.NewPCG(2, 2)))
	if d := math.Abs(e1.MissRatio - e2.MissRatio); d > e1.Half+e2.Half+0.05 {
		t.Fatalf("estimates disagree: %.3f vs %.3f", e1.MissRatio, e2.MissRatio)
	}
}

// TestFixedSampleDeterministic: evaluating the same Sample twice gives
// identical counts, and evaluating it under two analyzers ranks tilings
// the same way as the exact exhaustive counts.
func TestFixedSampleDeterministic(t *testing.T) {
	n := int64(64)
	box := iterspace.NewBox([]int64{1, 1}, []int64{n, n})
	s := Draw(box, 300, rand.New(rand.NewPCG(7, 9)))
	anU := transposeAnalyzer(t, n, nil)
	st1 := s.Evaluate(anU)
	st2 := s.Evaluate(anU)
	if st1 != st2 {
		t.Fatalf("fixed sample not deterministic: %+v vs %+v", st1, st2)
	}

	anT := transposeAnalyzer(t, n, []int64{8, 8})
	sampU := s.Evaluate(anU)
	sampT := s.Evaluate(anT)
	exactU := anU.ExhaustiveStats()
	exactT := anT.ExhaustiveStats()
	if (exactT.Replacement < exactU.Replacement) != (sampT.Replacement < sampU.Replacement) {
		t.Fatalf("sampled ranking disagrees with exact: sampled %d vs %d, exact %d vs %d",
			sampT.Replacement, sampU.Replacement, exactT.Replacement, exactU.Replacement)
	}
}

func TestEstimateZeroAccesses(t *testing.T) {
	e := finish(cachesim.Stats{}, 0, 0.9)
	if e.MissRatio != 0 || e.Half != 0 {
		t.Fatalf("zero-sample estimate = %+v", e)
	}
	lo, hi := e.Interval()
	if lo != 0 || hi != 0 {
		t.Fatalf("zero-sample interval = [%v, %v]", lo, hi)
	}
}

// TestEstimatePerRef: per-reference estimates sum to the aggregate and
// expose the asymmetry of the transpose kernel (a(j,i) misses far more
// than b(i,j)).
func TestEstimatePerRef(t *testing.T) {
	an := transposeAnalyzer(t, 500, nil)
	rng := rand.New(rand.NewPCG(5, 6))
	per := EstimatePerRef(an, 600, 0.9, rng)
	if len(per) != 2 {
		t.Fatalf("per-ref count = %d", len(per))
	}
	// With column-major arrays and j innermost, a(j,i) walks its fastest
	// dimension (streams) while b(i,j) strides a whole column per step:
	// the read must miss far more than the write.
	if per[0].MissRatio <= per[1].MissRatio {
		t.Fatalf("b(i,j) miss %.3f not above a(j,i) %.3f", per[0].MissRatio, per[1].MissRatio)
	}
	for _, e := range per {
		if e.Stats.Accesses != 600 {
			t.Fatalf("per-ref accesses = %d", e.Stats.Accesses)
		}
	}
}

// TestCompareSampleSizes: the paper-size estimate's interval brackets the
// large-sample reference.
func TestCompareSampleSizes(t *testing.T) {
	n := int64(256)
	a := &ir.Array{Name: "a", Dims: []int64{n, n}, Elem: 8}
	b := &ir.Array{Name: "b", Dims: []int64{n, n}, Elem: 8}
	ir.LayoutArrays(0, 32, a, b)
	nest := &ir.Nest{
		Name: "t2d",
		Loops: []ir.Loop{
			{Var: "i", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(n)), Step: 1},
			{Var: "j", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(n)), Step: 1},
		},
		Refs: []ir.Ref{
			{Array: b, Subs: []expr.Affine{expr.Var(0), expr.Var(1)}},
			{Array: a, Subs: []expr.Affine{expr.Var(1), expr.Var(0)}, Write: true},
		},
	}
	small, large, err := CompareSampleSizes(nest, cache.DM8K, PaperSampleSize, 8200, 99)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := small.Interval()
	if large.MissRatio < lo-large.Half || large.MissRatio > hi+large.Half {
		t.Fatalf("precise ratio %.3f outside paper interval [%.3f, %.3f]", large.MissRatio, lo, hi)
	}
	if large.Half >= small.Half {
		t.Fatal("larger sample should have tighter interval")
	}
}
