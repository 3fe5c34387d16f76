package core

import (
	"context"
	"strconv"

	"repro/internal/cache"
	"repro/internal/cme"
	"repro/internal/evalcache"
	"repro/internal/ga"
	"repro/internal/ir"
	"repro/internal/iterspace"
	"repro/internal/sampling"
	"repro/internal/tiling"
)

// Level couples one cache level with the relative penalty of missing in it
// (e.g. L1 miss ≈ 10 cycles, L2 miss ≈ 100 cycles). Levels are analysed
// independently — the CME model treats each level as its own cache, the
// standard simplification for multi-level analytical models.
type Level struct {
	Cache cache.Config
	// MissPenalty weights this level's replacement misses in the cost.
	MissPenalty float64
}

// LevelEstimate pairs a level with its sampled estimates.
type LevelEstimate struct {
	Level         Level
	Before, After sampling.Estimate
}

// MultiLevelResult reports a multi-level tile search.
type MultiLevelResult struct {
	Tile      []int64
	Levels    []LevelEstimate
	TiledNest *ir.Nest
	GA        ga.Result
	Stopped   ga.StopReason
	// CostBefore/CostAfter are the weighted replacement-miss costs per
	// sampled access.
	CostBefore, CostAfter float64
	// Quarantined lists candidates set aside under FailQuarantine.
	Quarantined []QuarantinedEval
}

// OptimizeTilingMultiLevel extends the single-cache search to a cache
// hierarchy: the objective is the penalty-weighted sum of replacement
// misses across levels, so the GA trades L1 residency against L2
// residency instead of optimising one level blindly. Like the other
// searches it is context-bounded and returns a best-so-far tile tagged
// with the Stopped reason on cancellation, deadline or budget exhaustion.
func OptimizeTilingMultiLevel(ctx context.Context, nest *ir.Nest, levels []Level, opt Options) (*MultiLevelResult, error) {
	if len(levels) == 0 {
		return nil, badOption("levels", "no cache levels")
	}
	for i, l := range levels {
		if err := l.Cache.Validate(); err != nil {
			return nil, badOption("levels", "level %d: %v", i, err)
		}
		if l.MissPenalty <= 0 {
			return nil, badOption("levels", "level %d: non-positive miss penalty %v", i, l.MissPenalty)
		}
	}
	opt.Cache = levels[0].Cache // evaluator's cfg is unused per-level below
	return runSearch(ctx, nest, opt, func(ev *evaluator) problem {
		// The multi-level fitness depends on every level's geometry and
		// penalty, not just the evaluator's level-0 geometry: widen the
		// memo scope so hierarchies differing in any level never share
		// values.
		scope := make([]string, 0, 2*len(levels))
		for _, l := range levels {
			scope = append(scope, evalcache.ConfigKey(l.Cache),
				strconv.FormatFloat(l.MissPenalty, 'g', -1, 64))
		}
		return problem{
			label:     "multilevel",
			spec:      ev.tileSpec(),
			seeds:     tileSeeds(nest, ev.box, levels[0].Cache),
			memoScope: scope,
			// The per-level one-off analyzers cannot resume partial prefix
			// evaluations across rungs, so this search refuses fidelity.
			cost: func(ctx context.Context, e *evaluator, v []int64) (float64, error) {
				space := iterspace.NewTiled(e.box, tileFromGenome(e.box, v))
				var c float64
				for _, l := range levels {
					an, err := cme.NewAnalyzer(nest, space, l.Cache)
					if err != nil {
						return 0, err
					}
					st, err := e.evalFresh(ctx, an)
					if err != nil {
						return 0, err
					}
					c += l.MissPenalty * float64(st.Replacement)
				}
				return c, nil
			},
		}
	}, func(s *search) (*MultiLevelResult, error) {
		ev := s.ev
		best := tileFromGenome(ev.box, s.res.Best)
		tiledNest, space, err := tiling.Apply(nest, best)
		if err != nil {
			return nil, err
		}
		out := &MultiLevelResult{
			Tile: best, TiledNest: tiledNest, GA: s.res, Stopped: s.res.Stopped,
			Quarantined: s.guard.quarantined(),
		}
		accesses := float64(len(ev.sample.Points) * len(nest.Refs))
		fin := s.finalize()
		for _, l := range levels {
			anU, err := cme.NewAnalyzer(nest, ev.box, l.Cache)
			if err != nil {
				return nil, err
			}
			anT, err := cme.NewAnalyzer(nest, space, l.Cache)
			if err != nil {
				return nil, err
			}
			before, err := ev.evalFresh(fin, anU)
			if err != nil {
				return nil, err
			}
			after, err := ev.evalFresh(fin, anT)
			if err != nil {
				return nil, err
			}
			out.Levels = append(out.Levels, LevelEstimate{
				Level:  l,
				Before: ev.estimate(before),
				After:  ev.estimate(after),
			})
			out.CostBefore += l.MissPenalty * float64(before.Replacement) / accesses
			out.CostAfter += l.MissPenalty * float64(after.Replacement) / accesses
		}
		return out, nil
	})
}

// BestInterchange evaluates every loop order of the nest under the shared
// sampled objective WITHOUT tiling and returns the best replacement ratio
// and its order. Factorial in depth; the paper's kernels are ≤4 deep. It
// returns the context's error if cancelled mid-enumeration.
func BestInterchange(ctx context.Context, nest *ir.Nest, opt Options) (float64, []int, error) {
	if err := opt.Validate(); err != nil {
		return 0, nil, err
	}
	opt = opt.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	ev, err := newEvaluator(nest, opt)
	if err != nil {
		return 0, nil, err
	}
	k := nest.Depth()
	best := 2.0
	var bestOrder []int
	var rec func(avail []int, cur []int) error
	rec = func(avail []int, cur []int) error {
		if len(avail) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			space := iterspace.NewPermutedBox(ev.box, cur)
			an, err := cme.NewAnalyzer(nest, space, ev.cfg)
			if err != nil {
				return err
			}
			st, err := ev.evalFresh(ctx, an)
			if err != nil {
				return err
			}
			if ratio := st.ReplacementRatio(); ratio < best {
				best = ratio
				bestOrder = append([]int(nil), cur...)
			}
			return nil
		}
		for i := range avail {
			next := make([]int, 0, len(avail)-1)
			next = append(next, avail[:i]...)
			next = append(next, avail[i+1:]...)
			if err := rec(next, append(cur, avail[i])); err != nil {
				return err
			}
		}
		return nil
	}
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	if err := rec(all, make([]int, 0, k)); err != nil {
		return 0, nil, err
	}
	return best, bestOrder, nil
}
