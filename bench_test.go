// Benchmarks regenerating every table and figure of the paper's evaluation
// plus micro-benchmarks of the analysis machinery and ablations of the
// design choices. Each experiment benchmark reports the headline ratios of
// its table/figure as custom metrics, so `go test -bench=.` both times the
// pipeline and reproduces the results.
//
// Experiment benchmarks run in "quick" mode (problem sizes capped) so the
// full suite completes in minutes; `cmd/experiments` runs the full sizes.
package cmetiling_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/baselines"
	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/cme"
	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/experiments"
	"repro/internal/ga"
	"repro/internal/iterspace"
	"repro/internal/kernels"
	"repro/internal/sampling"
	"repro/internal/search"
	"repro/internal/tiling"
	"repro/internal/trace"
)

func quickCfg() experiments.Config {
	return experiments.Config{Seed: 2002, Quick: true, QuickCap: 200}
}

// BenchmarkTable2 regenerates Table 2 (miss ratios before/after tiling,
// 8KB direct-mapped) and reports the average replacement ratios.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(context.Background(), quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		var before, after float64
		for _, r := range rows {
			before += r.BeforeRepl
			after += r.AfterRepl
		}
		b.ReportMetric(100*before/float64(len(rows)), "repl%/before")
		b.ReportMetric(100*after/float64(len(rows)), "repl%/after")
	}
}

// figureBench runs a Figure-8/9 regeneration on a representative subset of
// the x-axis (quick sizes) and reports the mean ratios.
func figureBench(b *testing.B, cfg cache.Config) {
	entries := []experiments.Entry{
		{Kernel: "T2D", Size: 500},
		{Kernel: "T3DJIK", Size: 100},
		{Kernel: "T3DIKJ", Size: 100},
		{Kernel: "JACOBI3D", Size: 100},
		{Kernel: "MATMUL", Size: 100},
		{Kernel: "MM", Size: 100},
		{Kernel: "ADI", Size: 500},
		{Kernel: "DPSSB"},
		{Kernel: "DRADBG1"},
		{Kernel: "DRADFG1"},
	}
	c := quickCfg()
	c.QuickCap = 500
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure(context.Background(), cfg, entries, c)
		if err != nil {
			b.Fatal(err)
		}
		var before, after float64
		for _, r := range rows {
			before += r.NoTiling
			after += r.Tiling
		}
		b.ReportMetric(100*before/float64(len(rows)), "repl%/before")
		b.ReportMetric(100*after/float64(len(rows)), "repl%/after")
	}
}

// BenchmarkFigure8 regenerates the Figure-8 comparison at 8KB.
func BenchmarkFigure8(b *testing.B) { figureBench(b, cache.DM8K) }

// BenchmarkFigure9 regenerates the Figure-9 comparison at 32KB.
func BenchmarkFigure9(b *testing.B) { figureBench(b, cache.DM32K) }

// BenchmarkTable3 regenerates the 8KB half of Table 3 (padding and
// padding+tiling on the conflict-bound kernels).
func BenchmarkTable3(b *testing.B) {
	c := quickCfg()
	c.QuickCap = 128
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(context.Background(), cache.DM8K, c)
		if err != nil {
			b.Fatal(err)
		}
		var orig, pad, both float64
		for _, r := range rows {
			orig += r.Original
			pad += r.Padding
			both += r.PaddingTiling
		}
		n := float64(len(rows))
		b.ReportMetric(100*orig/n, "repl%/original")
		b.ReportMetric(100*pad/n, "repl%/padding")
		b.ReportMetric(100*both/n, "repl%/pad+tile")
	}
}

// BenchmarkTable4 regenerates Table 4's bucket fractions from a quick
// Figure-8 subset.
func BenchmarkTable4(b *testing.B) {
	entries := []experiments.Entry{
		{Kernel: "T2D", Size: 500}, {Kernel: "T3DJIK", Size: 100},
		{Kernel: "MM", Size: 100}, {Kernel: "JACOBI3D", Size: 100},
		{Kernel: "DPSSB"}, {Kernel: "DRADFG1"},
	}
	c := quickCfg()
	c.QuickCap = 500
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure(context.Background(), cache.DM8K, entries, c)
		if err != nil {
			b.Fatal(err)
		}
		t4 := experiments.Table4("8KB", rows)
		b.ReportMetric(100*t4.Below1, "pct<1%")
		b.ReportMetric(100*t4.Below2, "pct<2%")
		b.ReportMetric(100*t4.Below5, "pct<5%")
	}
}

// BenchmarkGAConvergence measures the §3.3 claims: generations to
// termination (15–25) and distinct objective evaluations (≤ nominal 450).
func BenchmarkGAConvergence(b *testing.B) {
	entries := []experiments.Entry{{Kernel: "MM", Size: 100}, {Kernel: "T2D", Size: 500}}
	c := quickCfg()
	c.QuickCap = 500
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Convergence(context.Background(), entries, c)
		if err != nil {
			b.Fatal(err)
		}
		var gens, evals float64
		for _, r := range rows {
			gens += float64(r.Generations)
			evals += float64(r.Evaluations)
		}
		b.ReportMetric(gens/float64(len(rows)), "generations")
		b.ReportMetric(evals/float64(len(rows)), "evaluations")
	}
}

// --- micro-benchmarks of the machinery ------------------------------------

func mmAnalyzer(b *testing.B, n int64, tile []int64, cfg cache.Config) *cme.Analyzer {
	b.Helper()
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(n)
	if err != nil {
		b.Fatal(err)
	}
	box, err := tiling.Box(nest)
	if err != nil {
		b.Fatal(err)
	}
	var sp iterspace.Space = box
	if tile != nil {
		sp = iterspace.NewTiled(box, tile)
	}
	an, err := cme.NewAnalyzer(nest, sp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return an
}

// BenchmarkPointSolver times one exact per-access CME classification — the
// inner loop of every estimate (§2.3's "fast solver").
func BenchmarkPointSolver(b *testing.B) {
	an := mmAnalyzer(b, 500, nil, cache.DM8K)
	sp := an.Space()
	rng := rand.New(rand.NewPCG(1, 2))
	p := make([]int64, sp.NumCoords())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Sample(rng, p)
		for r := 0; r < 4; r++ {
			an.Classify(p, r)
		}
	}
}

// BenchmarkPointSolverTiled is the same over a tiled space (twice the
// coordinates, min() bounds).
func BenchmarkPointSolverTiled(b *testing.B) {
	an := mmAnalyzer(b, 500, []int64{32, 16, 16}, cache.DM8K)
	sp := an.Space()
	rng := rand.New(rand.NewPCG(1, 2))
	p := make([]int64, sp.NumCoords())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Sample(rng, p)
		for r := 0; r < 4; r++ {
			an.Classify(p, r)
		}
	}
}

// BenchmarkClassify pits the optimized interference walk (incremental
// address maintenance + direct-mapped fast path) against the retained
// reference walk on the MM kernel over a tiled space — the headline
// point-solver speedup of the throughput overhaul. Both sub-benchmarks
// classify the same fixed set of sampled points.
func BenchmarkClassify(b *testing.B) {
	for _, mode := range []string{"incremental", "reference"} {
		b.Run(mode, func(b *testing.B) {
			an := mmAnalyzer(b, 500, []int64{32, 16, 16}, cache.DM8K)
			sp := an.Space()
			rng := rand.New(rand.NewPCG(5, 6))
			pts := make([][]int64, 256)
			for i := range pts {
				p := make([]int64, sp.NumCoords())
				sp.Sample(rng, p)
				pts[i] = p
			}
			classify := an.Classify
			if mode == "reference" {
				classify = an.ClassifyReference
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pts[i%len(pts)]
				for r := 0; r < 4; r++ {
					classify(p, r)
				}
			}
		})
	}
}

// BenchmarkEvaluateParallel times one common-random-numbers objective
// evaluation (the paper's 164-point sample over tiled MM) with EvaluateWith
// over N analyzers, plus the per-candidate Rebind of a fixed analyzer pool
// that the search evaluator pays on top.
func BenchmarkEvaluateParallel(b *testing.B) {
	sample := mmSample(b, 500, sampling.PaperSampleSize)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			an := mmAnalyzer(b, 500, []int64{32, 16, 16}, cache.DM8K)
			pool := []*cme.Analyzer{an}
			for len(pool) < workers {
				pool = append(pool, an.Clone())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sample.EvaluateWith(context.Background(), pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("pooled=4", func(b *testing.B) {
		an := mmAnalyzer(b, 500, []int64{32, 16, 16}, cache.DM8K)
		pool := []*cme.Analyzer{an, an.Clone(), an.Clone(), an.Clone()}
		tiledSpace := an.Space()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range pool {
				if err := a.Rebind(tiledSpace); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sample.EvaluateWith(context.Background(), pool); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// mmSample draws a fixed original-space sample for the MM kernel.
func mmSample(b *testing.B, n int64, points int) *sampling.Sample {
	b.Helper()
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(n)
	if err != nil {
		b.Fatal(err)
	}
	box, err := tiling.Box(nest)
	if err != nil {
		b.Fatal(err)
	}
	return sampling.Draw(box, points, rand.New(rand.NewPCG(9, 10)))
}

// BenchmarkEstimate164 times one full §2.3 miss-ratio estimate (the
// paper's 164-point sample), i.e. one GA objective evaluation.
func BenchmarkEstimate164(b *testing.B) {
	an := mmAnalyzer(b, 500, []int64{32, 16, 16}, cache.DM8K)
	rng := rand.New(rand.NewPCG(3, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampling.EstimateMissRatio(an, sampling.PaperSampleSize, 0.9, rng)
	}
}

// BenchmarkSimulator times the trace-driven simulator in accesses/op.
func BenchmarkSimulator(b *testing.B) {
	k, _ := kernels.Get("MM")
	nest, _ := k.Instance(64)
	sim := cachesim.New(cache.DM8K)
	var addrs []int64
	trace.Generate(nest, func(_ []int64, a trace.Access) bool {
		addrs = append(addrs, a.Addr)
		return len(addrs) < 1<<20
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Access(addrs[i%len(addrs)])
	}
}

// BenchmarkGASearch times one complete tile search with the paper's
// parameters (what the paper reports as 15 minutes to 4 hours per nest on
// a Sun Ultra-60).
func BenchmarkGASearch(b *testing.B) {
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(500)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.OptimizeTiling(context.Background(), nest, core.Options{Cache: cache.DM8K, Seed: uint64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIslandSearch compares single-population and island-model wall
// clock at an equal evaluation budget. Workers is pinned to 1 so every
// scrap of parallelism comes from the demes themselves: the multi-island
// run should beat the single-island run on any multi-core host.
func BenchmarkIslandSearch(b *testing.B) {
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(300)
	if err != nil {
		b.Fatal(err)
	}
	for _, islands := range []int{1, 4} {
		b.Run(fmt.Sprintf("islands=%d", islands), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.OptimizeTiling(context.Background(), nest, core.Options{
					Cache:          cache.DM8K,
					Seed:           42,
					Workers:        1,
					Islands:        islands,
					SamplePoints:   164,
					MaxEvaluations: 600,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.After.ReplacementRatio, "repl%/after")
				b.ReportMetric(float64(res.GA.Evaluations), "evaluations")
			}
		})
	}
}

// BenchmarkEvalCacheSearch measures the shared evaluation cache on the
// island-benchmark workload: "cold" gives every search a fresh cache (the
// first-request side, bounding the cache's overhead), "warm" repeats an
// identical search against a pre-warmed cache (the repeated-request side
// — what tilingd sees when related requests arrive). The determinism
// contract makes the results bit-identical either way; only time differs.
func BenchmarkEvalCacheSearch(b *testing.B) {
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(300)
	if err != nil {
		b.Fatal(err)
	}
	opts := func(c *evalcache.Cache) core.Options {
		return core.Options{
			Cache:          cache.DM8K,
			Seed:           42,
			Workers:        1,
			SamplePoints:   164,
			MaxEvaluations: 600,
			SharedCache:    c,
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := evalcache.New(evalcache.Config{})
			if _, err := core.OptimizeTiling(context.Background(), nest, opts(c)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := evalcache.New(evalcache.Config{})
		if _, err := core.OptimizeTiling(context.Background(), nest, opts(c)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.OptimizeTiling(context.Background(), nest, opts(c)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		m := c.Metrics()
		b.ReportMetric(float64(m.Hits)/float64(b.N), "hits/op")
	})
}

// BenchmarkFidelitySearch compares classic full-fidelity evaluation
// against the multi-fidelity successive-halving ladder on the paper's
// convergence workload. Both sides run the identical GA schedule to
// convergence; the ladder scores most candidates on the coarse 41-point
// prefix and promotes only survivors to the full 164-point sample, so it
// classifies far fewer points per search. repl%/after is the sampled
// full-fidelity estimate of the winning tile either way — the quality
// guardrail for the speedup.
func BenchmarkFidelitySearch(b *testing.B) {
	for _, kn := range []struct {
		kernel string
		size   int64
	}{{"MM", 300}, {"T2D", 500}} {
		k, _ := kernels.Get(kn.kernel)
		nest, err := k.Instance(kn.size)
		if err != nil {
			b.Fatal(err)
		}
		for _, rungs := range []int{0, 3} {
			name := map[int]string{0: "off", 3: "rungs3"}[rungs]
			b.Run(kn.kernel+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := core.OptimizeTiling(context.Background(), nest, core.Options{
						Cache:        cache.DM8K,
						Seed:         42,
						Workers:      1,
						SamplePoints: 164,
						Fidelity:     ga.Fidelity{Rungs: rungs},
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(100*res.After.ReplacementRatio, "repl%/after")
					b.ReportMetric(float64(res.GA.Evaluations), "evaluations")
				}
			})
		}
	}
}

// --- ablations -------------------------------------------------------------

// BenchmarkAblationPopulation varies the GA population size around the
// paper's 30 and reports the post-tiling replacement ratio.
func BenchmarkAblationPopulation(b *testing.B) {
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(200)
	if err != nil {
		b.Fatal(err)
	}
	for _, pop := range []int{10, 30, 60} {
		b.Run(map[int]string{10: "pop10", 30: "pop30", 60: "pop60"}[pop], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := core.Options{Cache: cache.DM8K, Seed: 5}
				opt.GA = ga.PaperParams(5)
				opt.GA.PopSize = pop
				res, err := core.OptimizeTiling(context.Background(), nest, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.After.ReplacementRatio, "repl%/after")
				b.ReportMetric(float64(res.GA.Evaluations), "evaluations")
			}
		})
	}
}

// BenchmarkAblationSampleSize varies the per-evaluation sample size around
// the paper's 164.
func BenchmarkAblationSampleSize(b *testing.B) {
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(200)
	if err != nil {
		b.Fatal(err)
	}
	for _, pts := range []int{41, 164, 656} {
		name := map[int]string{41: "pts41", 164: "pts164", 656: "pts656"}[pts]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.OptimizeTiling(context.Background(), nest, core.Options{
					Cache: cache.DM8K, Seed: 5, SamplePoints: pts,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.After.ReplacementRatio, "repl%/after")
			}
		})
	}
}

// BenchmarkOptimizerShootout compares the GA against the §3.1
// alternatives — simulated annealing, stochastic hill climbing and pure
// random search — at the GA's nominal evaluation budget (450 distinct
// candidates) on the same deterministic objective.
func BenchmarkOptimizerShootout(b *testing.B) {
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(500)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{Cache: cache.DM8K, Seed: 13}
	obj, box, err := core.TileObjective(nest, opt)
	if err != nil {
		b.Fatal(err)
	}
	extents := make([]int64, nest.Depth())
	for d := range extents {
		extents[d] = box.Extent(d)
	}
	problem := search.TileProblem(extents, obj)
	accesses := float64(164 * len(nest.Refs))

	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := search.Random(problem, 450, 13)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.BestValue/accesses, "repl%/after")
		}
	})
	b.Run("hillclimb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := search.HillClimb(problem, 450, 13)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.BestValue/accesses, "repl%/after")
		}
	})
	b.Run("anneal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := search.Anneal(problem, 450, 13)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.BestValue/accesses, "repl%/after")
		}
	})
	b.Run("ga", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.OptimizeTiling(context.Background(), nest, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.After.ReplacementRatio, "repl%/after")
		}
	})
}

// BenchmarkAssociativitySweep extends the paper: post-tiling replacement
// ratios as associativity grows at constant capacity — associativity
// absorbs part of the conflict residue the paper attacks with padding.
func BenchmarkAssociativitySweep(b *testing.B) {
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(200)
	if err != nil {
		b.Fatal(err)
	}
	for _, assoc := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "direct", 2: "2way", 4: "4way"}[assoc], func(b *testing.B) {
			cfg := cache.Config{Size: 8192, LineSize: 32, Assoc: assoc}
			for i := 0; i < b.N; i++ {
				res, err := core.OptimizeTiling(context.Background(), nest, core.Options{Cache: cfg, Seed: 21})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.Before.ReplacementRatio, "repl%/before")
				b.ReportMetric(100*res.After.ReplacementRatio, "repl%/after")
			}
		})
	}
}

// BenchmarkBaselinesVsGA compares the related-work tile selectors (§5)
// against the GA on matrix multiply, reporting each selector's ratio.
func BenchmarkBaselinesVsGA(b *testing.B) {
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(200)
	if err != nil {
		b.Fatal(err)
	}
	box, _ := tiling.Box(nest)
	sample := sampling.Draw(box, 1000, rand.New(rand.NewPCG(9, 9)))
	evalTile := func(tile []int64) float64 {
		an, err := cme.NewAnalyzer(nest, iterspace.NewTiled(box, tile), cache.DM8K)
		if err != nil {
			b.Fatal(err)
		}
		return sample.Evaluate(an).ReplacementRatio()
	}
	for _, sel := range baselines.All() {
		b.Run(sel.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tile, err := sel.Select(nest, cache.DM8K)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*evalTile(tile), "repl%/after")
			}
		})
	}
	b.Run("ga", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.OptimizeTiling(context.Background(), nest, core.Options{Cache: cache.DM8K, Seed: 9})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*evalTile(res.Tile), "repl%/after")
		}
	})
}

// BenchmarkOrderSearch compares the fixed-order tile search against the
// extension that also searches the interchange order of the tile loops.
func BenchmarkOrderSearch(b *testing.B) {
	k, _ := kernels.Get("T3DJIK")
	nest, err := k.Instance(100)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{Cache: cache.DM8K, Seed: 31}
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.OptimizeTiling(context.Background(), nest, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.After.ReplacementRatio, "repl%/after")
		}
	})
	b.Run("ordered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.OptimizeTilingOrder(context.Background(), nest, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.After.ReplacementRatio, "repl%/after")
		}
	})
}

// BenchmarkAblationCrossover compares recombination operators on the real
// tile objective (the paper uses single-point, Figure 5).
func BenchmarkAblationCrossover(b *testing.B) {
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(200)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []ga.CrossoverKind{ga.SinglePoint, ga.TwoPoint, ga.Uniform} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := core.Options{Cache: cache.DM8K, Seed: 5}
				opt.GA = ga.PaperParams(5)
				opt.GA.Crossover = kind
				res, err := core.OptimizeTiling(context.Background(), nest, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.After.ReplacementRatio, "repl%/after")
			}
		})
	}
}

// BenchmarkAblationAlphabet compares gene alphabet widths: the paper's
// 2-bit alphabet {00,01,10,11} (§3.3) against 1-bit and 3-bit genes, on
// the raw GA over the real objective.
func BenchmarkAblationAlphabet(b *testing.B) {
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(200)
	if err != nil {
		b.Fatal(err)
	}
	obj, box, err := core.TileObjective(nest, core.Options{Cache: cache.DM8K, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	extents := make([]int64, nest.Depth())
	for d := range extents {
		extents[d] = box.Extent(d)
	}
	accesses := float64(164 * len(nest.Refs))
	for _, geneBits := range []int{1, 2, 3} {
		name := map[int]string{1: "bits1", 2: "bits2", 3: "bits3"}[geneBits]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := ga.NewTileSpecBits(extents, geneBits)
				cfg := ga.PaperConfig(5)
				cfg.MutationProb = 1.0 / (2 * float64(spec.TotalBits()))
				res, err := ga.Run(context.Background(), spec, func(v []int64) float64 {
					t := make([]int64, len(v))
					for d := range v {
						t[d] = v[d]
						if t[d] > extents[d] {
							t[d] = extents[d]
						}
						if t[d] < 1 {
							t[d] = 1
						}
					}
					return obj(t)
				}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.BestValue/accesses, "repl%/best")
			}
		})
	}
}

// BenchmarkIterspaceTraversal times the Next/Prev primitives that the
// backward interference walk is built from.
func BenchmarkIterspaceTraversal(b *testing.B) {
	box := iterspace.NewBox([]int64{1, 1, 1}, []int64{500, 500, 500})
	spaces := map[string]iterspace.Space{
		"box":      box,
		"tiled":    iterspace.NewTiled(box, []int64{32, 16, 8}),
		"permuted": iterspace.NewPermutedTiled(box, []int64{32, 16, 8}, []int{2, 0, 1}),
	}
	for name, sp := range spaces {
		b.Run(name+"/next", func(b *testing.B) {
			p := make([]int64, sp.NumCoords())
			sp.First(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sp.Next(p) {
					sp.First(p)
				}
			}
		})
		b.Run(name+"/prev", func(b *testing.B) {
			p := make([]int64, sp.NumCoords())
			last := make([]int64, sp.NumCoords())
			sp.First(last)
			for sp.Next(last) {
				if last[0] > 3 { // a deep-enough starting point
					break
				}
			}
			copy(p, last)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sp.Prev(p) {
					copy(p, last)
				}
			}
		})
	}
}
