package cme

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/expr"
	"repro/internal/ir"
	"repro/internal/iterspace"
)

// bruteFirst scans k = 0, 1, … below limit for the first k at which
// b − (k+1)·coef lands in the window [lo, hi] modulo c; −1 if none does.
// b is the address at k = −1, i.e. the scanned point's.
func bruteFirst(b, coef, c, lo, hi, limit int64) int64 {
	x := b - coef
	for k := int64(0); k < limit; k++ {
		if m := x & (c - 1); m >= lo && m <= hi {
			return k
		}
		x -= coef
	}
	return -1
}

// checkFirst compares runSolve.first with a brute-force scan of the
// first limit steps; when the solve reports no landing below limit, the
// scan must find none either.
func checkFirst(t *testing.T, c, line, coef, b, set, limit int64) {
	t.Helper()
	rs := newRunSolve(0, coef, c)
	lo := set * line
	hi := lo + line - 1
	got := rs.first((b-coef)&(c-1), lo, hi)
	want := bruteFirst(b, coef, c, lo, hi, limit)
	if got >= limit {
		got = -1
	}
	if got != want {
		t.Fatalf("C=%d line=%d coef=%d b=%d set=%d: solve k=%d, scan k=%d (within %d)",
			c, line, coef, b, set, got, want, limit)
	}
}

// TestRunSolveMatchesBruteForce checks the per-reference congruence solve
// against a point-by-point scan: every power-of-two C from 32 to 32768,
// line sizes 16–64 B, every coefficient in ±4096 plus multiples of C up to
// 2·C (multiples of C give d = 0, odd ones g = 1, multiples of 2·LineSize
// g > LineSize), windows that admit no residue, and every run length from
// 1 to 300 (the solve lands within rem points exactly when its k is below
// rem, so matching the scan's first k below 300 covers each rem up to
// 300).
func TestRunSolveMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(26, 1))
	limit := int64(300)
	for c := int64(32); c <= 32768; c *= 2 {
		for line := int64(16); line <= 64 && line <= c; line *= 2 {
			special := []int64{c, -c, 2 * c, 2 * line, -2 * line, 6 * line, c / 2, c - 1}
			for _, coef := range special {
				for range 8 {
					checkFirst(t, c, line, coef, r.Int64N(1<<20), r.Int64N(c/line), limit)
				}
			}
			for coef := int64(-4096); coef <= 4096; coef++ {
				checkFirst(t, c, line, coef, r.Int64N(1<<20), r.Int64N(c/line), limit)
			}
		}
		// Windows with no admissible residue: g = 4·LineSize and b's
		// residue mod g falls outside every line-sized window start.
		line := min(int64(32), c/4)
		if c >= 4*line {
			coef := -4 * line
			rs := newRunSolve(0, coef, c)
			for set := int64(0); set < c/line; set++ {
				b := set*line + line + coef // one point back: set·line + line
				if k := rs.first((b-coef)&(c-1), set*line, set*line+line-1); k != -1 {
					t.Fatalf("C=%d coef=%d set=%d: window admits no residue, solve k=%d", c, coef, set, k)
				}
				checkFirst(t, c, line, coef, b, set, limit)
			}
		}
	}
	// Exhaustive over the whole period for small caches: no landing
	// within C points (a full period of the set sequence) means none ever.
	for c := int64(32); c <= 256; c *= 2 {
		for coef := int64(-300); coef <= 300; coef++ {
			for b := int64(0); b < c; b += 7 {
				checkFirst(t, c, 16, coef, b, (b*5/16)%(c/16), c)
			}
		}
	}
}

// FuzzRunSolve checks the congruence solve against a scan of one whole
// period, for any coefficient, address and target set.
func FuzzRunSolve(f *testing.F) {
	f.Add(uint8(3), uint8(1), int64(8), int64(1000), int64(5))
	f.Add(uint8(8), uint8(2), int64(-4096), int64(77), int64(0))
	f.Add(uint8(10), uint8(0), int64(65536), int64(123456), int64(9))
	f.Fuzz(func(t *testing.T, cExp, lineExp uint8, coef, b, set int64) {
		c := int64(32) << (cExp % 11)
		line := min(int64(16)<<(lineExp%3), c)
		if b < 0 {
			b = -(b + 1)
		}
		set = (set & (1<<62 - 1)) % (c / line)
		checkFirst(t, c, line, coef, b, set, c+1)
	})
}

// longRunNest generates a random rectangular nest whose innermost loop
// runs 40–340 iterations, long enough for the direct-mapped walk to solve
// most of each run: 1–3 loops, 1–3 arrays with element sizes 4, 8 or 16,
// and 2–6 references with constant, reversed, strided and offset
// subscripts, every one inside its array (the first-access test is exact
// only there).
func longRunNest(r *rand.Rand) *ir.Nest {
	depth := 1 + int(r.Int64N(3))
	loops := make([]ir.Loop, depth)
	names := []string{"i", "j", "k"}
	maxHi := int64(0)
	for d := range loops {
		lo := 1 + r.Int64N(3)
		ext := 2 + r.Int64N(30)
		if d == depth-1 {
			ext = 40 + r.Int64N(301)
		}
		maxHi = max(maxHi, lo+ext-1)
		loops[d] = ir.Loop{Var: names[d], Lower: expr.Const(lo), Upper: ir.BoundOf(expr.Const(lo + ext - 1)), Step: 1}
	}
	elems := []int64{4, 8, 16}
	arrays := make([]*ir.Array, 1+r.Int64N(3))
	for a := range arrays {
		dims := make([]int64, 1+r.Int64N(2))
		for d := range dims {
			dims[d] = 2*maxHi + 8 + r.Int64N(40)
		}
		arrays[a] = &ir.Array{Name: string(rune('a' + a)), Dims: dims, Elem: elems[r.Int64N(3)]}
	}
	aligns := []int64{16, 256, 1024, 4096, 8}
	ir.LayoutArrays(r.Int64N(3)*16, aligns[r.Int64N(int64(len(aligns)))], arrays...)

	refs := make([]ir.Ref, 2+r.Int64N(5))
	for i := range refs {
		arr := arrays[r.Int64N(int64(len(arrays)))]
		subs := make([]expr.Affine, arr.Rank())
		for d := range subs {
			v := int(r.Int64N(int64(depth)))
			if r.Int64N(2) == 0 {
				v = depth - 1 // favour the innermost loop
			}
			switch r.Int64N(6) {
			case 0:
				subs[d] = expr.Const(1 + r.Int64N(4))
			case 1:
				subs[d] = expr.Term(v, -1, loops[v].Upper.Eval(nil)+1+r.Int64N(3))
			case 2:
				subs[d] = expr.Term(v, 2, -1)
			case 3:
				subs[d] = expr.VarPlus(v, -r.Int64N(loops[v].Lower.Eval(nil)))
			default:
				subs[d] = expr.VarPlus(v, r.Int64N(4))
			}
		}
		refs[i] = ir.Ref{Array: arr, Subs: subs, Write: r.Int64N(4) == 0}
	}
	return &ir.Nest{Name: "longrun", Loops: loops, Refs: refs}
}

// longRunCache draws a direct-mapped cache of 256 B–8 KB or a 2-, 4- or
// 8-way one, with 16-, 32- or 64-byte lines.
func longRunCache(r *rand.Rand) cache.Config {
	for {
		cfg := cache.Config{
			Size:     256 << r.Int64N(6),
			LineSize: 16 << r.Int64N(3),
			Assoc:    1,
		}
		if r.Int64N(3) == 0 {
			cfg.Assoc = 2 << r.Int64N(3)
			cfg.Size *= int64(cfg.Assoc)
		}
		if cfg.Validate() == nil {
			return cfg
		}
	}
}

// checkSampledWalksAgree classifies sampled points three ways — Classify
// per access, ClassifyAll per point and the reference walk — on three
// analyzers, and fails unless every access's outcome and the walk
// accounting (steps, classified accesses, cap hits) agree after every
// access, and each point's ClassifyAll tallies and accounting agree with
// the reference's.
func checkSampledWalksAgree(t *testing.T, label string, nest *ir.Nest, space iterspace.Space, cfg cache.Config, walkCap uint64, points int, r *rand.Rand) {
	t.Helper()
	ans := make([]*Analyzer, 3)
	for i := range ans {
		an, err := NewAnalyzer(nest, space, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		an.walkCap = walkCap
		ans[i] = an
	}
	fast, all, ref := ans[0], ans[1], ans[2]
	p := make([]int64, space.NumCoords())
	for range points {
		space.Sample(r, p)
		var want cachesim.Stats
		for ri := range nest.Refs {
			w := ref.ClassifyReference(p, ri)
			if got := fast.Classify(p, ri); got != w {
				t.Fatalf("%s (cache %v, space %T): point %v ref %d: Classify=%v ClassifyReference=%v\nnest:\n%s",
					label, cfg, space, p, ri, got, w, nest)
			}
			if got, w := fast.WalkCounts(), ref.WalkCounts(); got != w {
				t.Fatalf("%s (cache %v, space %T): point %v ref %d: walk accounting %+v, reference %+v\nnest:\n%s",
					label, cfg, space, p, ri, got, w, nest)
			}
			want.Accesses++
			switch w {
			case cachesim.Hit:
				want.Hits++
			case cachesim.CompulsoryMiss:
				want.Compulsory++
			default:
				want.Replacement++
			}
		}
		var got cachesim.Stats
		all.ClassifyAll(p, &got)
		if got != want {
			t.Fatalf("%s (cache %v, space %T): point %v: ClassifyAll %+v, reference %+v\nnest:\n%s",
				label, cfg, space, p, got, want, nest)
		}
		if g, w := all.WalkCounts(), ref.WalkCounts(); g != w {
			t.Fatalf("%s (cache %v, space %T): point %v: ClassifyAll walk accounting %+v, reference %+v",
				label, cfg, space, p, g, w)
		}
	}
}

// TestDifferentialLongRuns is the equivalence guarantee of the run solve:
// random nests with innermost runs of 40–340 points, every space type,
// direct-mapped caches of 256 B–8 KB (the solve) and 2-, 4- and 8-way
// caches (the scan), with a small walk cap on one nest in four so the cap
// also trips inside solved stretches.
func TestDifferentialLongRuns(t *testing.T) {
	r := rand.New(rand.NewPCG(2026, 26))
	nests, points := 400, 300
	if testing.Short() {
		nests, points = 80, 100
	}
	for iter := range nests {
		nest := longRunNest(r)
		if err := nest.Validate(); err != nil {
			t.Fatalf("iter %d: generator produced invalid nest: %v", iter, err)
		}
		lo := make([]int64, nest.Depth())
		hi := make([]int64, nest.Depth())
		for d, l := range nest.Loops {
			lo[d] = l.Lower.Eval(nil)
			hi[d] = l.Upper.Eval(nil)
		}
		space := randomSpace(r, nest.Depth(), lo, hi)
		cfg := longRunCache(r)
		walkCap := uint64(DefaultWalkCap)
		if r.Int64N(4) == 0 {
			walkCap = uint64(20 + r.Int64N(2000))
		}
		checkSampledWalksAgree(t, fmt.Sprintf("iter %d (cap %d)", iter, walkCap), nest, space, cfg, walkCap, points, r)
	}
}

// TestWalkCapInsideSolvedStretch: one reference sweeping a 300-element
// array twice on a direct-mapped cache that holds it. Classifying a(201)
// in the second sweep walks back over the 200 earlier points of that
// sweep, which hold no line of its set (one jump to the floor), then
// solves the first sweep down from a(300), where a(204), on a(201)'s
// line, is the first to land: a hit after 296 steps. Each cap up to 296
// trips inside one of those two solved stretches, so the count the solve
// adds must stop at the cap exactly as the scan's does.
func TestWalkCapInsideSolvedStretch(t *testing.T) {
	arr := &ir.Array{Name: "a", Dims: []int64{300}, Elem: 8}
	ir.LayoutArrays(0, 32, arr)
	nest := &ir.Nest{
		Name: "sweep",
		Loops: []ir.Loop{
			{Var: "j", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(2)), Step: 1},
			{Var: "i", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(300)), Step: 1},
		},
		Refs: []ir.Ref{{Array: arr, Subs: []expr.Affine{expr.Var(1)}}},
	}
	box := iterspace.NewBox([]int64{1, 1}, []int64{2, 300})
	cfg := cache.Config{Size: 8192, LineSize: 32, Assoc: 1}
	p := []int64{2, 201} // a(201) starts a line: a(200) lies in the line before
	for _, walkCap := range []uint64{100, 199, 200, 201, 250, 296, 297} {
		fast, _ := NewAnalyzer(nest, box, cfg)
		ref, _ := NewAnalyzer(nest, box, cfg)
		fast.walkCap, ref.walkCap = walkCap, walkCap
		got, want := fast.Classify(p, 0), ref.ClassifyReference(p, 0)
		if got != want || fast.WalkCounts() != ref.WalkCounts() {
			t.Fatalf("cap %d: Classify=%v %+v, ClassifyReference=%v %+v",
				walkCap, got, fast.WalkCounts(), want, ref.WalkCounts())
		}
		if tripped := walkCap <= 296; (ref.CapHits() == 1) != tripped {
			t.Fatalf("cap %d: %d cap hits, want tripped=%v", walkCap, ref.CapHits(), tripped)
		}
	}
}

// TestRunSolveScansNegativeAddresses: where an address in a run is
// negative, the set it maps to is not its residue modulo C (the walk
// divides such addresses exactly), so the run must be scanned. a(i−300)
// lies below address 0 for i < 301, and modulo C it would land in the
// set of b(5) at i = 84; the scan passes it and finds the hit on b(5)'s
// own line further back. The nest's inner loop starts at 301, which keeps
// a(i−300) inside a as Validate requires; the analyzer walks the wider
// space i = 1..400 that it is given, so the negative addresses stay
// reachable.
func TestRunSolveScansNegativeAddresses(t *testing.T) {
	a := &ir.Array{Name: "a", Dims: []int64{100}, Elem: 8}
	b := &ir.Array{Name: "b", Dims: []int64{400}, Elem: 8, Base: 6400}
	nest := &ir.Nest{
		Name: "below-zero",
		Loops: []ir.Loop{
			{Var: "j", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(2)), Step: 1},
			{Var: "i", Lower: expr.Const(301), Upper: ir.BoundOf(expr.Const(400)), Step: 1},
		},
		Refs: []ir.Ref{
			{Array: a, Subs: []expr.Affine{expr.VarPlus(1, -300)}},
			{Array: b, Subs: []expr.Affine{expr.Var(1)}},
		},
	}
	box := iterspace.NewBox([]int64{1, 1}, []int64{2, 400})
	cfg := cache.Config{Size: 8192, LineSize: 32, Assoc: 1}
	fast, err := NewAnalyzer(nest, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewAnalyzer(nest, box, cfg)
	// Only b's accesses: a's first-access test is exact only inside a.
	for i := int64(2); i <= 60; i++ {
		p := []int64{2, i}
		got, want := fast.Classify(p, 1), ref.ClassifyReference(p, 1)
		if got != want || fast.WalkCounts() != ref.WalkCounts() {
			t.Fatalf("point %v: Classify=%v %+v, ClassifyReference=%v %+v",
				p, got, fast.WalkCounts(), want, ref.WalkCounts())
		}
	}
	fast.startWalk([]int64{1, 400})
	if s, _ := fast.solveRun(201, 399); s >= 0 {
		t.Fatalf("solveRun over a stretch reaching address %d gave s=%d, want a scan", (1-301)*8, s)
	}
	if s, _ := fast.solveRun(201, 99); s != 0 {
		t.Fatalf("solveRun over a(100)..a(1) gave s=%d, want no landing", s)
	}
}
