package cme

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/iterspace"
)

// randomSpace wraps a nest's bounding box in a random traversal order:
// the box itself, a random tiling, a random permuted tiling or a random
// loop interchange — every space the solver walks.
func randomSpace(r *rand.Rand, depth int, lo, hi []int64) iterspace.Space {
	box := iterspace.NewBox(lo, hi)
	tile := func() []int64 {
		tile := make([]int64, depth)
		for d := range tile {
			tile[d] = 1 + r.Int64N(box.Extent(d))
		}
		return tile
	}
	switch r.Int64N(4) {
	case 0:
		return box
	case 1:
		return iterspace.NewTiled(box, tile())
	case 2:
		return iterspace.NewPermutedTiled(box, tile(), r.Perm(depth))
	default:
		return iterspace.NewPermutedBox(box, r.Perm(depth))
	}
}

// checkWalksAgree classifies every access of space with the optimized
// walk (Classify) and the retained reference walk (ClassifyReference) and
// fails unless they agree on EVERY access and — because both count a step
// at exactly the same probes — on the cumulative walk statistics and cap
// hits. Two analyzer instances are used so neither implementation can
// lean on scratch state the other left behind.
func checkWalksAgree(t *testing.T, label string, nest *ir.Nest, space iterspace.Space, cfg cache.Config) {
	t.Helper()
	fast, err := NewAnalyzer(nest, space, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref, err := NewAnalyzer(nest, space, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	p := make([]int64, space.NumCoords())
	if !space.First(p) {
		return
	}
	for {
		for ri := range nest.Refs {
			got := fast.Classify(p, ri)
			want := ref.ClassifyReference(p, ri)
			if got != want {
				t.Fatalf("%s (cache %v, space %T): point %v ref %d: Classify=%v ClassifyReference=%v\nnest:\n%s",
					label, cfg, space, p, ri, got, want, nest)
			}
		}
		if !space.Next(p) {
			break
		}
	}
	if got, want := fast.WalkCounts(), ref.WalkCounts(); got != want {
		t.Fatalf("%s (space %T): walk accounting diverges: incremental %+v vs reference %+v", label, space, got, want)
	}
}

// TestDifferentialRandomKernels is the equivalence guarantee of the
// optimized walk over random kernels, caches and traversal spaces.
func TestDifferentialRandomKernels(t *testing.T) {
	r := rand.New(rand.NewPCG(424242, 17))
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for iter := 0; iter < iters; iter++ {
		nest := randomNest(r)
		if err := nest.Validate(); err != nil {
			t.Fatalf("iter %d: generator produced invalid nest: %v", iter, err)
		}
		cfg := randomCache(r)

		lo := make([]int64, nest.Depth())
		hi := make([]int64, nest.Depth())
		for d, l := range nest.Loops {
			lo[d] = l.Lower.Eval(nil)
			hi[d] = l.Upper.Eval(nil)
		}
		space := randomSpace(r, nest.Depth(), lo, hi)
		checkWalksAgree(t, fmt.Sprintf("iter %d", iter), nest, space, cfg)
	}
}

// TestDifferentialAssociativitySweep pins the equivalence on the suite's
// named kernels across associativities 1..8 (1 exercises walkDirect, the
// rest walkAssoc) and every traversal space type, complementing the
// random sweep.
func TestDifferentialAssociativitySweep(t *testing.T) {
	cases := []struct {
		name  string
		nest  *ir.Nest
		lo    []int64
		hi    []int64
		tile  []int64
		order []int
	}{
		{"mm", mmNest(10), []int64{1, 1, 1}, []int64{10, 10, 10}, []int64{4, 5, 3}, []int{2, 0, 1}},
		{"stencil", stencilNest(10), []int64{2, 2}, []int64{11, 11}, []int64{3, 6}, []int{1, 0}},
	}
	for _, tc := range cases {
		box := iterspace.NewBox(tc.lo, tc.hi)
		spaces := []iterspace.Space{
			box,
			iterspace.NewTiled(box, tc.tile),
			iterspace.NewPermutedTiled(box, tc.tile, tc.order),
			iterspace.NewPermutedBox(box, tc.order),
		}
		for _, assoc := range []int{1, 2, 4, 8} {
			cfg := cache.Config{Size: int64(assoc) * 512, LineSize: 32, Assoc: assoc}
			for _, space := range spaces {
				checkWalksAgree(t, fmt.Sprintf("%s assoc=%d", tc.name, assoc), tc.nest, space, cfg)
			}
		}
	}
}

// TestCloneAccountingFresh is the regression test for the clone
// counter-inheritance bug: a clone taken from a parent that has already
// done work must start its WalkStats and CapHits at zero, so aggregating
// per-worker clone counters never double-counts the parent's history.
func TestCloneAccountingFresh(t *testing.T) {
	nest := mmNest(12)
	box := iterspace.NewBox([]int64{1, 1, 1}, []int64{12, 12, 12})
	an, err := NewAnalyzer(nest, box, cache.Config{Size: 256, LineSize: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := make([]int64, 3)
	box.First(p)
	for i := 0; i < 300; i++ {
		for r := range nest.Refs {
			an.Classify(p, r)
		}
		if !box.Next(p) {
			break
		}
	}
	steps, accesses := an.WalkStats()
	if steps == 0 || accesses == 0 {
		t.Fatalf("parent did no measurable work (steps=%d accesses=%d)", steps, accesses)
	}
	an.walkCap = 1 // force a cap hit so the clone must clear it too
	box.First(p)
	for an.CapHits() == 0 {
		for r := range nest.Refs {
			an.Classify(p, r)
		}
		if !box.Next(p) {
			break
		}
	}
	an.walkCap = DefaultWalkCap
	if an.CapHits() == 0 {
		t.Fatal("failed to provoke a cap hit on the parent")
	}

	cl := an.Clone()
	if s, a := cl.WalkStats(); s != 0 || a != 0 {
		t.Fatalf("clone inherited walk accounting: steps=%d accesses=%d, want 0,0", s, a)
	}
	if cl.CapHits() != 0 {
		t.Fatalf("clone inherited %d cap hits, want 0", cl.CapHits())
	}
	// And the clone still classifies identically to the parent.
	box.First(p)
	for i := 0; i < 50; i++ {
		for r := range nest.Refs {
			if cl.Classify(p, r) != an.Classify(p, r) {
				t.Fatalf("clone classification diverges at %v ref %d", p, r)
			}
		}
		if !box.Next(p) {
			break
		}
	}
}

// TestRebindMatchesFreshAnalyzer: an analyzer rebound from one space to
// another must classify exactly like a freshly constructed analyzer on the
// target space, with its accounting restarted — the contract the core
// evaluator's analyzer pool relies on.
func TestRebindMatchesFreshAnalyzer(t *testing.T) {
	nest := transposeNest(16)
	box := iterspace.NewBox([]int64{1, 1}, []int64{16, 16})
	cfg := cache.Config{Size: 512, LineSize: 32, Assoc: 2}

	an, err := NewAnalyzer(nest, box, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Do some work on the box so rebinding has state to clear.
	p := make([]int64, box.NumCoords())
	box.First(p)
	for i := 0; i < 100; i++ {
		for r := range nest.Refs {
			an.Classify(p, r)
		}
		if !box.Next(p) {
			break
		}
	}

	tiled := iterspace.NewTiled(box, []int64{4, 6})
	if err := an.Rebind(tiled); err != nil {
		t.Fatal(err)
	}
	if s, a := an.WalkStats(); s != 0 || a != 0 {
		t.Fatalf("rebind kept walk accounting: steps=%d accesses=%d", s, a)
	}
	fresh, err := NewAnalyzer(nest, tiled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp := make([]int64, tiled.NumCoords())
	tiled.First(tp)
	for {
		for r := range nest.Refs {
			got := an.Classify(tp, r)
			want := fresh.Classify(tp, r)
			if got != want {
				t.Fatalf("rebound analyzer diverges at %v ref %d: %v vs fresh %v", tp, r, got, want)
			}
		}
		if !tiled.Next(tp) {
			break
		}
	}
	// Identical work must yield identical accounting.
	rs, ra := an.WalkStats()
	fs, fa := fresh.WalkStats()
	if rs != fs || ra != fa {
		t.Fatalf("rebound walk stats (%d, %d) != fresh (%d, %d)", rs, ra, fs, fa)
	}

	// Rebinding at a space of mismatched original rank must fail cleanly.
	bad := iterspace.NewBox([]int64{1}, []int64{8})
	if err := an.Rebind(bad); err == nil {
		t.Fatal("rebind accepted a space with the wrong original rank")
	}
}
