package cme

import (
	"math/rand/v2"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/expr"
	"repro/internal/ir"
	"repro/internal/iterspace"
	"repro/internal/trace"
)

// --- test kernels ---------------------------------------------------------

func mmNest(n int64) *ir.Nest {
	a := &ir.Array{Name: "a", Dims: []int64{n, n}, Elem: 8}
	b := &ir.Array{Name: "b", Dims: []int64{n, n}, Elem: 8}
	c := &ir.Array{Name: "c", Dims: []int64{n, n}, Elem: 8}
	ir.LayoutArrays(0, 32, a, b, c)
	cn := ir.BoundOf(expr.Const(n))
	return &ir.Nest{
		Name: "mm",
		Loops: []ir.Loop{
			{Var: "i", Lower: expr.Const(1), Upper: cn, Step: 1},
			{Var: "j", Lower: expr.Const(1), Upper: cn, Step: 1},
			{Var: "k", Lower: expr.Const(1), Upper: cn, Step: 1},
		},
		Refs: []ir.Ref{
			{Array: a, Subs: []expr.Affine{expr.Var(0), expr.Var(1)}},
			{Array: b, Subs: []expr.Affine{expr.Var(0), expr.Var(2)}},
			{Array: c, Subs: []expr.Affine{expr.Var(2), expr.Var(1)}},
			{Array: a, Subs: []expr.Affine{expr.Var(0), expr.Var(1)}, Write: true},
		},
	}
}

func transposeNest(n int64) *ir.Nest {
	a := &ir.Array{Name: "a", Dims: []int64{n, n}, Elem: 8}
	b := &ir.Array{Name: "b", Dims: []int64{n, n}, Elem: 8}
	ir.LayoutArrays(0, 32, a, b)
	cn := ir.BoundOf(expr.Const(n))
	return &ir.Nest{
		Name: "t2d",
		Loops: []ir.Loop{
			{Var: "i", Lower: expr.Const(1), Upper: cn, Step: 1},
			{Var: "j", Lower: expr.Const(1), Upper: cn, Step: 1},
		},
		Refs: []ir.Ref{
			{Array: b, Subs: []expr.Affine{expr.Var(0), expr.Var(1)}},
			{Array: a, Subs: []expr.Affine{expr.Var(1), expr.Var(0)}, Write: true},
		},
	}
}

// stencilNest has group reuse and off-by-constant subscripts.
func stencilNest(n int64) *ir.Nest {
	a := &ir.Array{Name: "a", Dims: []int64{n + 2, n + 2}, Elem: 8}
	b := &ir.Array{Name: "b", Dims: []int64{n + 2, n + 2}, Elem: 8}
	ir.LayoutArrays(0, 32, a, b)
	lo, hi := expr.Const(2), ir.BoundOf(expr.Const(n+1))
	return &ir.Nest{
		Name: "jacobi2d",
		Loops: []ir.Loop{
			{Var: "i", Lower: lo, Upper: hi, Step: 1},
			{Var: "j", Lower: lo, Upper: hi, Step: 1},
		},
		Refs: []ir.Ref{
			{Array: b, Subs: []expr.Affine{expr.VarPlus(0, -1), expr.Var(1)}},
			{Array: b, Subs: []expr.Affine{expr.VarPlus(0, 1), expr.Var(1)}},
			{Array: b, Subs: []expr.Affine{expr.Var(0), expr.VarPlus(1, -1)}},
			{Array: b, Subs: []expr.Affine{expr.Var(0), expr.VarPlus(1, 1)}},
			{Array: a, Subs: []expr.Affine{expr.Var(0), expr.Var(1)}, Write: true},
		},
	}
}

// reverseNest exercises negative subscript coefficients: a(N+1-i) = b(i).
func reverseNest(n int64) *ir.Nest {
	a := &ir.Array{Name: "a", Dims: []int64{n}, Elem: 8}
	b := &ir.Array{Name: "b", Dims: []int64{n}, Elem: 8}
	ir.LayoutArrays(0, 32, a, b)
	return &ir.Nest{
		Name: "rev",
		Loops: []ir.Loop{
			{Var: "i", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(n)), Step: 1},
		},
		Refs: []ir.Ref{
			{Array: b, Subs: []expr.Affine{expr.Var(0)}},
			{Array: a, Subs: []expr.Affine{expr.Term(0, -1, n+1)}, Write: true},
		},
	}
}

// --- lockstep validation --------------------------------------------------

// lockstep runs the simulator and the analyzer over the same trace and
// fails on the first disagreement.
func lockstep(t *testing.T, nest *ir.Nest, space iterspace.Space, cfg cache.Config) cachesim.Stats {
	t.Helper()
	an, err := NewAnalyzer(nest, space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := cachesim.New(cfg)
	n := 0
	trace.GenerateSpace(space, nest, func(p []int64, a trace.Access) bool {
		want := sim.Access(a.Addr)
		got := an.Classify(p, a.RefIdx)
		if got != want {
			t.Fatalf("%s %v access %d (ref %d, addr %d, point %v): analyzer=%v simulator=%v",
				nest.Name, cfg, n, a.RefIdx, a.Addr, p, got, want)
		}
		n++
		return true
	})
	if an.CapHits() != 0 {
		t.Fatalf("walk cap tripped %d times", an.CapHits())
	}
	return sim.Stats()
}

func smallCaches() []cache.Config {
	return []cache.Config{
		{Size: 256, LineSize: 32, Assoc: 1},  // 8 sets, very conflicty
		{Size: 512, LineSize: 32, Assoc: 2},  // 8 sets, 2-way
		{Size: 1024, LineSize: 32, Assoc: 4}, // 8 sets, 4-way
		{Size: 2048, LineSize: 32, Assoc: 1}, // 64 sets
	}
}

func TestAnalyzerMatchesSimulatorUntiled(t *testing.T) {
	kernels := []*ir.Nest{mmNest(8), transposeNest(12), stencilNest(8), reverseNest(64)}
	for _, nest := range kernels {
		lo := make([]int64, nest.Depth())
		hi := make([]int64, nest.Depth())
		for d, l := range nest.Loops {
			lo[d] = l.Lower.Eval(nil)
			hi[d] = l.Upper.Eval(nil)
		}
		box := iterspace.NewBox(lo, hi)
		for _, cfg := range smallCaches() {
			lockstep(t, nest, box, cfg)
		}
	}
}

func TestAnalyzerMatchesSimulatorTiled(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 43))
	kernels := []*ir.Nest{mmNest(9), transposeNest(13), stencilNest(7)}
	for _, nest := range kernels {
		lo := make([]int64, nest.Depth())
		hi := make([]int64, nest.Depth())
		for d, l := range nest.Loops {
			lo[d] = l.Lower.Eval(nil)
			hi[d] = l.Upper.Eval(nil)
		}
		box := iterspace.NewBox(lo, hi)
		for trial := 0; trial < 6; trial++ {
			tile := make([]int64, nest.Depth())
			for d := range tile {
				tile[d] = 1 + r.Int64N(box.Extent(d))
			}
			space := iterspace.NewTiled(box, tile)
			for _, cfg := range smallCaches()[:2] {
				lockstep(t, nest, space, cfg)
			}
		}
	}
}

// TestExhaustiveStatsMatchesSimulator compares aggregate statistics.
func TestExhaustiveStatsMatchesSimulator(t *testing.T) {
	nest := mmNest(10)
	box := iterspace.NewBox([]int64{1, 1, 1}, []int64{10, 10, 10})
	cfg := cache.Config{Size: 512, LineSize: 32, Assoc: 1}
	an, err := NewAnalyzer(nest, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := an.ExhaustiveStats()
	want := cachesim.SimulateNest(nest, cfg)
	if got.Accesses != want.Accesses || got.Hits != want.Hits ||
		got.Compulsory != want.Compulsory || got.Replacement != want.Replacement {
		t.Fatalf("analyzer stats %+v != simulator stats %+v", got, want)
	}
}

// TestTilingReducesMissesEndToEnd: the whole point of the machinery — a
// well-chosen tiling slashes replacement misses for transpose through a
// small cache, and the analyzer sees it.
func TestTilingReducesMissesEndToEnd(t *testing.T) {
	nest := transposeNest(32) // 2 * 8KB of data
	box := iterspace.NewBox([]int64{1, 1}, []int64{32, 32})
	cfg := cache.Config{Size: 2048, LineSize: 32, Assoc: 1}

	anU, err := NewAnalyzer(nest, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	untiled := anU.ExhaustiveStats()

	tiled := iterspace.NewTiled(box, []int64{4, 4})
	anT, err := NewAnalyzer(nest, tiled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := anT.ExhaustiveStats()

	if untiled.Compulsory != after.Compulsory {
		t.Fatalf("tiling changed compulsory misses: %d -> %d", untiled.Compulsory, after.Compulsory)
	}
	if after.Replacement*2 >= untiled.Replacement {
		t.Fatalf("4x4 tiling did not halve replacement misses: %d -> %d",
			untiled.Replacement, after.Replacement)
	}
}

func TestNewAnalyzerRejectsBadInput(t *testing.T) {
	nest := mmNest(4)
	box := iterspace.NewBox([]int64{1, 1, 1}, []int64{4, 4, 4})
	if _, err := NewAnalyzer(nest, box, cache.Config{Size: 100, LineSize: 32, Assoc: 1}); err == nil {
		t.Fatal("bad cache accepted")
	}
	wrongBox := iterspace.NewBox([]int64{1}, []int64{4})
	if _, err := NewAnalyzer(nest, wrongBox, cache.DM8K); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	// Multi-variable subscript rejected.
	arr := &ir.Array{Name: "x", Dims: []int64{64}, Elem: 8, Base: 0}
	bad := &ir.Nest{
		Name: "bad",
		Loops: []ir.Loop{
			{Var: "i", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(4)), Step: 1},
			{Var: "j", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(4)), Step: 1},
		},
		Refs: []ir.Ref{
			{Array: arr, Subs: []expr.Affine{expr.Var(0).Add(expr.Var(1))}},
		},
	}
	if _, err := NewAnalyzer(bad, iterspace.NewBox([]int64{1, 1}, []int64{4, 4}), cache.DM8K); err == nil {
		t.Fatal("multi-variable subscript accepted")
	}
}

func TestClone(t *testing.T) {
	nest := transposeNest(8)
	box := iterspace.NewBox([]int64{1, 1}, []int64{8, 8})
	an, err := NewAnalyzer(nest, box, cache.Config{Size: 256, LineSize: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl := an.Clone()
	// Both must produce identical classifications independently.
	p := []int64{3, 5}
	for r := 0; r < 2; r++ {
		if an.Classify(p, r) != cl.Classify(p, r) {
			t.Fatal("clone disagrees")
		}
	}
}

// TestPointScratch: the reusable coordinate buffer survives rebinds to
// spaces of different coordinate counts and never aliases a fresh call's
// expectation of zeroed-by-overwrite semantics.
func TestPointScratch(t *testing.T) {
	nest := transposeNest(16)
	box := iterspace.NewBox([]int64{1, 1}, []int64{16, 16})
	an, err := NewAnalyzer(nest, box, cache.Config{Size: 256, LineSize: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf := an.PointScratch()
	if len(buf) != an.Space().NumCoords() {
		t.Fatalf("scratch len %d != coords %d", len(buf), an.Space().NumCoords())
	}
	if &buf[0] != &an.PointScratch()[0] {
		t.Fatal("scratch reallocated between calls")
	}
	if err := an.Rebind(iterspace.NewTiled(box, []int64{4, 8})); err != nil {
		t.Fatal(err)
	}
	if got := an.PointScratch(); len(got) != an.Space().NumCoords() {
		t.Fatalf("scratch not resized after rebind: %d != %d", len(got), an.Space().NumCoords())
	}
}

// TestRebindAllocatesNothing: once an analyzer has been bound to a space of
// some shape, rebinding it to that space allocates nothing, on every space
// type the search uses.
func TestRebindAllocatesNothing(t *testing.T) {
	nest := mmNest(12)
	box := iterspace.NewBox([]int64{1, 1, 1}, []int64{12, 12, 12})
	an, err := NewAnalyzer(nest, box, cache.DM8K)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []iterspace.Space{
		box,
		iterspace.NewTiled(box, []int64{4, 6, 5}),
		iterspace.NewPermutedTiled(box, []int64{4, 6, 5}, []int{2, 0, 1}),
		iterspace.NewPermutedBox(box, []int{1, 2, 0}),
	} {
		if err := an.Rebind(sp); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { _ = an.Rebind(sp) }); n != 0 {
			t.Errorf("Rebind to %T allocates %v times per call", sp, n)
		}
	}
}

// TestConstantSubscript covers refs like x(3,j).
func TestConstantSubscript(t *testing.T) {
	n := int64(16)
	x := &ir.Array{Name: "x", Dims: []int64{4, n}, Elem: 8, Base: 0}
	nest := &ir.Nest{
		Name: "constsub",
		Loops: []ir.Loop{
			{Var: "j", Lower: expr.Const(1), Upper: ir.BoundOf(expr.Const(n)), Step: 1},
		},
		Refs: []ir.Ref{
			{Array: x, Subs: []expr.Affine{expr.Const(3), expr.Var(0)}},
			{Array: x, Subs: []expr.Affine{expr.Const(1), expr.Var(0)}, Write: true},
		},
	}
	box := iterspace.NewBox([]int64{1}, []int64{n})
	for _, cfg := range smallCaches() {
		lockstep(t, nest, box, cfg)
	}
}

// TestWalkCostSizeIndependent anchors the complexity claim: the average
// backward-walk length per access stays within a small multiple of the
// set count as the problem grows 5x in linear size (125x in points).
func TestWalkCostSizeIndependent(t *testing.T) {
	cfg := cache.Config{Size: 2048, LineSize: 32, Assoc: 1} // 64 sets
	perSize := map[int64]float64{}
	for _, n := range []int64{40, 200} {
		nest := mmNest(n)
		box := iterspace.NewBox([]int64{1, 1, 1}, []int64{n, n, n})
		an, err := NewAnalyzer(nest, box, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(n), 5))
		p := make([]int64, 3)
		var st cachesim.Stats
		for i := 0; i < 400; i++ {
			box.Sample(rng, p)
			an.ClassifyAll(p, &st)
		}
		steps, accesses := an.WalkStats()
		perSize[n] = float64(steps) / float64(accesses)
	}
	sets := float64(cfg.NumSets())
	for n, avg := range perSize {
		if avg > 4*sets {
			t.Fatalf("N=%d: %.1f walk steps/access exceeds 4x sets (%v)", n, avg, sets)
		}
	}
	// Growth bounded: 5x the size must not even double the walk cost.
	if perSize[200] > 2*perSize[40]+sets {
		t.Fatalf("walk cost grew with problem size: %.1f -> %.1f", perSize[40], perSize[200])
	}
}

// TestAnalyzerFillsCacheLines: an Analyzer spans whole cache lines, so the
// allocator lines it up with them and analyzers working on different
// goroutines never write into a shared line. Adding a field changes the
// size: adjust the trailing pad.
func TestAnalyzerFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Analyzer{}); size%cacheLine != 0 {
		t.Fatalf("Analyzer is %d bytes, not a multiple of the %d-byte cache line", size, cacheLine)
	}
}
