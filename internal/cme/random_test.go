package cme

import (
	"math/rand/v2"
	"testing"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/expr"
	"repro/internal/ir"
	"repro/internal/iterspace"
	"repro/internal/trace"
)

// randomNest generates a random rectangular affine loop nest: 1–3 loops,
// 1–3 arrays (column- or row-major, with random intra-array padding and
// base alignment, and now and then a dimension of extent 1), 2–6
// references with random single-variable affine subscripts (constants,
// reversed, strided with coefficient 2, −2 or 3, and offset subscripts),
// some of which use one loop variable in every subscript, as a(i,i) does.
func randomNest(r *rand.Rand) *ir.Nest {
	depth := 1 + int(r.Int64N(3))
	loops := make([]ir.Loop, depth)
	extents := make([]int64, depth)
	names := []string{"i", "j", "k"}
	for d := 0; d < depth; d++ {
		lo := 1 + r.Int64N(3)
		extents[d] = 3 + r.Int64N(8)
		loops[d] = ir.Loop{
			Var:   names[d],
			Lower: expr.Const(lo),
			Upper: ir.BoundOf(expr.Const(lo + extents[d] - 1)),
			Step:  1,
		}
	}
	nArrays := 1 + int(r.Int64N(3))
	arrays := make([]*ir.Array, nArrays)
	for a := 0; a < nArrays; a++ {
		rank := 1 + int(r.Int64N(3))
		dims := make([]int64, rank)
		for d := range dims {
			// Big enough for any subscript the generator produces:
			// coef up to 3, offset up to +3, lower bound up to 3,
			// extent up to 10 -> max subscript value 3*12-2 = 34.
			dims[d] = 36 + r.Int64N(8)
			if rank > 1 && r.Int64N(8) == 0 {
				dims[d] = 1 // only subscript 1 reaches it
			}
		}
		arr := &ir.Array{
			Name: string(rune('a' + a)),
			Dims: dims,
			Elem: 8,
		}
		if r.Int64N(3) == 0 {
			arr.Layout = ir.RowMajor
		}
		if r.Int64N(3) == 0 {
			arr.Pad = make([]int64, rank)
			arr.Pad[r.Int64N(int64(rank))] = r.Int64N(4)
		}
		arrays[a] = arr
	}
	// Random layout: sometimes line-aligned, sometimes cache-aligned
	// (conflict-heavy), sometimes packed tight.
	aligns := []int64{32, 256, 1024, 8}
	ir.LayoutArrays(r.Int64N(3)*8, aligns[r.Int64N(int64(len(aligns)))], arrays...)

	nRefs := 2 + int(r.Int64N(5))
	refs := make([]ir.Ref, nRefs)
	for i := range refs {
		arr := arrays[r.Int64N(int64(nArrays))]
		subs := make([]expr.Affine, arr.Rank())
		same := -1 // the variable of every subscript, as in a(i,i)
		if r.Int64N(4) == 0 {
			same = int(r.Int64N(int64(depth)))
		}
		for d := range subs {
			v := same
			if v < 0 {
				v = int(r.Int64N(int64(depth)))
			}
			hi := loops[v].Upper.Eval(nil)
			switch kind := r.Int64N(7); {
			case arr.Dims[d] == 1:
				subs[d] = expr.Const(1)
			case kind == 0: // constant subscript
				subs[d] = expr.Const(1 + r.Int64N(4))
			case kind == 1: // reversed: c - v
				subs[d] = expr.Term(v, -1, hi+1)
			case kind == 2: // strided: 2v - 1
				subs[d] = expr.Term(v, 2, -1)
			case kind == 3: // reversed strided: c - 2v
				subs[d] = expr.Term(v, -2, 2*hi+2)
			case kind == 4: // strided: 3v - 2
				subs[d] = expr.Term(v, 3, -2)
			default: // plain v + c
				subs[d] = expr.VarPlus(v, r.Int64N(4))
			}
		}
		refs[i] = ir.Ref{Array: arr, Subs: subs, Write: r.Int64N(4) == 0}
	}
	return &ir.Nest{Name: "rand", Loops: loops, Refs: refs}
}

func randomCache(r *rand.Rand) cache.Config {
	sizes := []int64{128, 256, 512, 1024, 4096}
	assocs := []int{1, 1, 2, 4} // direct-mapped twice as likely
	for {
		cfg := cache.Config{
			Size:     sizes[r.Int64N(int64(len(sizes)))],
			LineSize: 32,
			Assoc:    assocs[r.Int64N(int64(len(assocs)))],
		}
		if cfg.Validate() == nil {
			return cfg
		}
	}
}

// TestRandomKernelsLockstep is the package's strongest property test:
// for hundreds of randomly generated kernels, caches and (for some) random
// tilings, the CME point solver must agree with the trace-driven LRU
// simulator on EVERY access.
func TestRandomKernelsLockstep(t *testing.T) {
	r := rand.New(rand.NewPCG(2002, 7))
	iters := 250
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
		box := iterspace.NewBox(lo, hi)
		var space iterspace.Space = box
		switch r.Int64N(3) {
		case 0:
			tile := make([]int64, nest.Depth())
			for d := range tile {
				tile[d] = 1 + r.Int64N(box.Extent(d))
			}
			space = iterspace.NewTiled(box, tile)
		case 1:
			tile := make([]int64, nest.Depth())
			for d := range tile {
				tile[d] = 1 + r.Int64N(box.Extent(d))
			}
			space = iterspace.NewPermutedTiled(box, tile, r.Perm(nest.Depth()))
		}

		an, err := NewAnalyzer(nest, space, cfg)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		sim := cachesim.New(cfg)
		n := 0
		trace.GenerateSpace(space, nest, func(p []int64, a trace.Access) bool {
			want := sim.Access(a.Addr)
			got := an.Classify(p, a.RefIdx)
			if got != want {
				t.Fatalf("iter %d (cache %v): access %d ref %d addr %d point %v: analyzer=%v simulator=%v\nnest:\n%s",
					iter, cfg, n, a.RefIdx, a.Addr, p, got, want, nest)
			}
			n++
			return true
		})
		if an.CapHits() != 0 {
			t.Fatalf("iter %d: walk cap tripped", iter)
		}
	}
}

// TestRandomKernelsSamplingBrackets: on random kernels, the sampled
// estimate's interval brackets the exhaustive ratio (within the stated
// confidence, checked loosely across many kernels).
func TestRandomKernelsSamplingBrackets(t *testing.T) {
	r := rand.New(rand.NewPCG(77, 78))
	outside := 0
	total := 60
	if testing.Short() {
		total = 15
	}
	for iter := 0; iter < total; iter++ {
		nest := randomNest(r)
		cfg := randomCache(r)
		lo := make([]int64, nest.Depth())
		hi := make([]int64, nest.Depth())
		for d, l := range nest.Loops {
			lo[d] = l.Lower.Eval(nil)
			hi[d] = l.Upper.Eval(nil)
		}
		box := iterspace.NewBox(lo, hi)
		an, err := NewAnalyzer(nest, box, cfg)
		if err != nil {
			t.Fatal(err)
		}
		exact := an.ExhaustiveStats().MissRatio()
		var st cachesim.Stats
		p := make([]int64, box.NumCoords())
		for s := 0; s < 164; s++ {
			box.Sample(r, p)
			an.ClassifyAll(p, &st)
		}
		est := st.MissRatio()
		if est < exact-0.12 || est > exact+0.12 {
			outside++
		}
	}
	// With width-0.1/90% sampling plus slack 0.12, gross outliers should
	// be rare.
	if outside > total/5 {
		t.Fatalf("%d/%d sampled estimates far from exact ratios", outside, total)
	}
}

// TestWalkCapFallback: with an artificially tiny walk cap the analyzer
// still terminates, classifying unresolved accesses as replacement misses
// and recording the fallback.
func TestWalkCapFallback(t *testing.T) {
	nest := mmNest(16)
	box := iterspace.NewBox([]int64{1, 1, 1}, []int64{16, 16, 16})
	an, err := NewAnalyzer(nest, box, cache.Config{Size: 256, LineSize: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	an.walkCap = 2 // pathological
	var st cachesim.Stats
	p := make([]int64, 3)
	box.First(p)
	for i := 0; i < 500; i++ {
		an.ClassifyAll(p, &st)
		if !box.Next(p) {
			break
		}
	}
	if an.CapHits() == 0 {
		t.Fatal("tiny walk cap never tripped")
	}
	if st.Accesses != st.Hits+st.Compulsory+st.Replacement {
		t.Fatal("outcome counts inconsistent")
	}
}
