package ga

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
)

// TestPaperMappingExample reproduces the worked example of §3.3: upper
// bounds 10 and 100 give k=4 and k=8 bits; raw values 12 and 74 decode to
// tile sizes 8 and 29.
func TestPaperMappingExample(t *testing.T) {
	c1 := TileChromosome(10)
	if c1.Bits != 4 {
		t.Fatalf("U=10: bits = %d, want 4", c1.Bits)
	}
	c2 := TileChromosome(100)
	if c2.Bits != 8 { // ceil(log2 100) = 7, odd -> 8
		t.Fatalf("U=100: bits = %d, want 8", c2.Bits)
	}
	if got := c1.Decode(12); got != 8 {
		t.Fatalf("g1(12) = %d, want 8", got)
	}
	if got := c2.Decode(74); got != 29 {
		t.Fatalf("g2(74) = %d, want 29", got)
	}
}

// TestDecodeRangeAndSurjectivity: §3.3 claims every tile size has at least
// one representation, and decoded values always lie in [1, U].
func TestDecodeRangeAndSurjectivity(t *testing.T) {
	for _, u := range []int64{1, 2, 3, 7, 10, 16, 100, 127, 128, 1000} {
		c := TileChromosome(u)
		seen := map[int64]bool{}
		for x := uint64(0); x < uint64(1)<<c.Bits; x++ {
			v := c.Decode(x)
			if v < 1 || v > u {
				t.Fatalf("U=%d: Decode(%d) = %d out of range", u, x, v)
			}
			seen[v] = true
		}
		if int64(len(seen)) != u {
			t.Fatalf("U=%d: only %d of %d values representable", u, len(seen), u)
		}
	}
}

func TestSpecDecodeEncodeRoundTrip(t *testing.T) {
	spec := NewTileSpec([]int64{10, 100, 7})
	if spec.TotalBits() != 4+8+4 {
		t.Fatalf("TotalBits = %d", spec.TotalBits())
	}
	for _, vals := range [][]int64{{1, 1, 1}, {10, 100, 7}, {8, 29, 3}, {5, 50, 6}} {
		bits := spec.Encode(vals)
		got := spec.Decode(bits)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("round trip %v -> %v", vals, got)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := PaperConfig(1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{PopSize: 1, CrossoverProb: 0.9, MutationProb: 0.001, MinGens: 1, MaxGens: 2},
		{PopSize: 10, CrossoverProb: 1.5, MutationProb: 0.001, MinGens: 1, MaxGens: 2},
		{PopSize: 10, CrossoverProb: 0.9, MutationProb: -1, MinGens: 1, MaxGens: 2},
		{PopSize: 10, CrossoverProb: 0.9, MutationProb: 0.001, MinGens: 5, MaxGens: 2},
		{PopSize: 10, CrossoverProb: 0.9, MutationProb: 0.001, MinGens: 1, MaxGens: 2, ConvergeFrac: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: bad parameters accepted", i)
		}
		if err := (Config{Params: p}).Validate(); err == nil {
			t.Errorf("case %d: run over bad parameters accepted", i)
		}
	}
}

// TestRunOptimizesSphere: the GA finds the minimum of a separable convex
// integer function over a modest search space.
func TestRunOptimizesSphere(t *testing.T) {
	spec := NewTileSpec([]int64{64, 64})
	target := []int64{17, 42}
	obj := func(v []int64) float64 {
		d0 := float64(v[0] - target[0])
		d1 := float64(v[1] - target[1])
		return d0*d0 + d1*d1
	}
	cfg := PaperConfig(12345)
	cfg.MaxGens = 60
	cfg.MinGens = 30
	res, err := Run(context.Background(), spec, obj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue > 25 { // within distance 5 of the optimum
		t.Fatalf("GA best %v (value %v) far from optimum %v", res.Best, res.BestValue, target)
	}
	if res.Evaluations == 0 || len(res.History) != res.Generations+1 {
		t.Fatalf("bookkeeping: evals=%d gens=%d history=%d", res.Evaluations, res.Generations, len(res.History))
	}
}

// TestRunDeterministic: same seed, same result.
func TestRunDeterministic(t *testing.T) {
	spec := NewTileSpec([]int64{32, 32})
	obj := func(v []int64) float64 { return float64((v[0]-9)*(v[0]-9)) + float64((v[1]-3)*(v[1]-3)) }
	a, err := Run(context.Background(), spec, obj, PaperConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec, obj, PaperConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestValue != b.BestValue || a.Generations != b.Generations || a.Evaluations != b.Evaluations {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	c, err := Run(context.Background(), spec, obj, PaperConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seed may legitimately coincide; just ensure it runs
}

// TestScheduleBounds: the Figure-7 schedule runs at least MinGens and at
// most MaxGens generations.
func TestScheduleBounds(t *testing.T) {
	spec := NewTileSpec([]int64{16})
	obj := func(v []int64) float64 { return 0 } // flat: converges instantly
	cfg := PaperConfig(3)
	res, err := Run(context.Background(), spec, obj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != cfg.MinGens {
		t.Fatalf("flat objective ran %d generations, want MinGens=%d", res.Generations, cfg.MinGens)
	}

	// An objective that punishes homogeneity can't converge: must stop at
	// MaxGens.
	calls := 0
	noisy := func(v []int64) float64 {
		calls++
		return float64(calls % 97) // effectively random, never homogeneous
	}
	res2, err := Run(context.Background(), spec, noisy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Generations > cfg.MaxGens {
		t.Fatalf("ran %d generations, cap %d", res2.Generations, cfg.MaxGens)
	}
}

// TestBestEverMonotone: the recorded best-ever trajectory never worsens.
func TestBestEverMonotone(t *testing.T) {
	spec := NewTileSpec([]int64{64, 64, 64})
	obj := func(v []int64) float64 {
		return math.Abs(float64(v[0]-31)) + math.Abs(float64(v[1]-1)) + math.Abs(float64(v[2]-64))
	}
	res, err := Run(context.Background(), spec, obj, PaperConfig(99))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, h := range res.History {
		if h.BestEver > prev {
			t.Fatalf("best-ever worsened: %v", res.History)
		}
		prev = h.BestEver
		if h.Best < h.BestEver-1e-12 {
			t.Fatalf("generation best below best-ever: %+v", h)
		}
	}
}

// TestPaperEvaluationBudget: with the paper's parameters, the nominal
// evaluation budget is 15 generations × 30 individuals = 450 (§3.3). Our
// memoised engine performs at most that many distinct objective calls for
// a run that converges at generation 15.
func TestPaperEvaluationBudget(t *testing.T) {
	spec := NewTileSpec([]int64{100, 100})
	obj := func(v []int64) float64 { return float64(v[0] + v[1]) }
	cfg := PaperConfig(2024)
	res, err := Run(context.Background(), spec, obj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	budget := (res.Generations + 1) * cfg.PopSize
	if res.Evaluations > budget {
		t.Fatalf("evaluations %d exceed nominal budget %d", res.Evaluations, budget)
	}
}

func TestRunRejectsEmptySpec(t *testing.T) {
	if _, err := Run(context.Background(), Spec{}, func([]int64) float64 { return 0 }, PaperConfig(1)); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// TestSeedValues: heuristic seeds are injected into the initial population
// and an optimal seed is found immediately.
func TestSeedValues(t *testing.T) {
	spec := NewTileSpec([]int64{1000, 1000})
	target := []int64{3, 997}
	obj := func(v []int64) float64 {
		d0 := float64(v[0] - target[0])
		d1 := float64(v[1] - target[1])
		return d0*d0 + d1*d1
	}
	cfg := PaperConfig(1)
	cfg.SeedValues = [][]int64{target}
	res, err := Run(context.Background(), spec, obj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue != 0 {
		t.Fatalf("seeded optimum not retained: best %v value %v", res.Best, res.BestValue)
	}
	// Seeds beyond PopSize-1 must not crowd out random individuals.
	cfg2 := PaperConfig(2)
	for i := 0; i < 40; i++ {
		cfg2.SeedValues = append(cfg2.SeedValues, []int64{int64(i + 1), int64(i + 1)})
	}
	if _, err := Run(context.Background(), spec, obj, cfg2); err != nil {
		t.Fatal(err)
	}
}

// TestSelectRSSProperties: remainder stochastic selection without
// replacement preserves the population size and, across many draws, gives
// fitter individuals at least as many expected copies.
func TestSelectRSSProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	pop := make([]individual, 10)
	for i := range pop {
		pop[i] = individual{bits: []byte{byte(i)}, value: float64(i)} // 0 best
	}
	counts := make([]int, len(pop))
	const rounds = 2000
	for round := 0; round < rounds; round++ {
		sel := selectRSS(pop, rng)
		if len(sel) != len(pop) {
			t.Fatalf("selection size %d != %d", len(sel), len(pop))
		}
		for _, ind := range sel {
			counts[ind.bits[0]]++
		}
	}
	// The best individual must be selected strictly more often than the
	// worst, and roughly monotonically across ranks.
	if counts[0] <= counts[9] {
		t.Fatalf("best selected %d times, worst %d", counts[0], counts[9])
	}
	if counts[0] <= counts[5] {
		t.Fatalf("best selected %d times, median %d", counts[0], counts[5])
	}
	// Scaling caps the best's expected copies near 2 per generation.
	perGen := float64(counts[0]) / rounds
	if perGen > 2.6 {
		t.Fatalf("best gets %.2f copies/gen; scaling cap not applied", perGen)
	}
}

// TestSelectRSSUniformPopulation: equal fitness selects everyone roughly
// uniformly without dividing by zero.
func TestSelectRSSUniform(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	pop := make([]individual, 6)
	for i := range pop {
		pop[i] = individual{bits: []byte{byte(i)}, value: 5}
	}
	counts := make([]int, len(pop))
	for round := 0; round < 3000; round++ {
		for _, ind := range selectRSS(pop, rng) {
			counts[ind.bits[0]]++
		}
	}
	for i, c := range counts {
		if c < 2400 || c > 3600 { // expect ~3000 each
			t.Fatalf("individual %d selected %d times (expected ~3000)", i, c)
		}
	}
}

// TestChromosomeAlphabets: gene-width rounding per alphabet.
func TestChromosomeAlphabets(t *testing.T) {
	// U=100 needs 7 bits: 1-bit alphabet keeps 7, 2-bit rounds to 8,
	// 3-bit rounds to 9.
	for _, c := range []struct{ gene, want int }{{1, 7}, {2, 8}, {3, 9}} {
		got := NewChromosomeBits(1, 100, c.gene).Bits
		if got != c.want {
			t.Errorf("geneBits=%d: bits=%d want %d", c.gene, got, c.want)
		}
	}
	// Surjectivity holds for any alphabet.
	for _, gene := range []int{1, 2, 3} {
		ch := NewChromosomeBits(1, 37, gene)
		seen := map[int64]bool{}
		for x := uint64(0); x < uint64(1)<<ch.Bits; x++ {
			seen[ch.Decode(x)] = true
		}
		if len(seen) != 37 {
			t.Errorf("geneBits=%d: %d/37 values representable", gene, len(seen))
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero gene width accepted")
			}
		}()
		NewChromosomeBits(1, 4, 0)
	}()
}

// TestCrossoverOperators: each operator preserves the multiset of bits at
// every position across the pair, and each finds the sphere optimum.
func TestCrossoverOperators(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 41))
	for _, kind := range []CrossoverKind{SinglePoint, TwoPoint, Uniform} {
		for iter := 0; iter < 500; iter++ {
			a := make([]byte, 12)
			b := make([]byte, 12)
			for i := range a {
				a[i] = byte(rng.IntN(2))
				b[i] = byte(rng.IntN(2))
			}
			sa := append([]byte(nil), a...)
			sb := append([]byte(nil), b...)
			crossover(kind, a, b, rng)
			for i := range a {
				if a[i]+b[i] != sa[i]+sb[i] {
					t.Fatalf("%v: position %d bits not conserved", kind, i)
				}
			}
		}
		spec := NewTileSpec([]int64{64, 64})
		obj := func(v []int64) float64 {
			d0, d1 := float64(v[0]-20), float64(v[1]-44)
			return d0*d0 + d1*d1
		}
		cfg := PaperConfig(77)
		cfg.Crossover = kind
		res, err := Run(context.Background(), spec, obj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestValue > 100 {
			t.Errorf("%v: best %v too far from optimum", kind, res.BestValue)
		}
	}
	if SinglePoint.String() != "single-point" || TwoPoint.String() != "two-point" || Uniform.String() != "uniform" {
		t.Fatal("CrossoverKind strings")
	}
}
