package core

import (
	"context"
	"strconv"

	"repro/internal/cache"
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
	if opt.Fidelity.Enabled() {
		// Level cohorts could run the ladder, since each level's range
		// costs add up across rungs; it stays unsupported here, a
		// configuration without golden or fault coverage.
		return nil, badOption("Fidelity", "multi-fidelity evaluation is not supported by the multilevel search")
	}
	opt.Cache = levels[0].Cache // each level evaluates on a fork over its own cache
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
			levels:    levels,
			decode: func(e *evaluator, v []int64) (*ir.Nest, iterspace.Space, error) {
				return nest, iterspace.NewTiled(e.box, tileFromGenome(e.box, v)), nil
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
			f := ev.fork(ev.island, l.Cache)
			before, err := f.untiled(fin, nest)
			if err != nil {
				return nil, err
			}
			after, err := f.evalSpace(fin, nest, space)
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

// levelBatch is a multi-level deme's ga.BatchEvaluator: one cohort per
// cache level, each on its own fork's analyzer pool, classifies the
// generation level by level, and Commit sums candidate i's penalty-weighted
// replacement misses in level order.
type levelBatch struct {
	levels  []Level
	cohorts []*cohort
}

// newLevelBatch builds a deme's level batch over forks of its evaluator
// e, one per level's cache.
func newLevelBatch(e *evaluator, levels []Level, newCohort func(*evaluator) *cohort) *levelBatch {
	b := &levelBatch{levels: levels}
	for _, l := range levels {
		b.cohorts = append(b.cohorts, newCohort(e.fork(e.island, l.Cache)))
	}
	return b
}

// Evaluate implements ga.BatchEvaluator.
func (b *levelBatch) Evaluate(ctx context.Context, values [][]int64, r ga.Rung) {
	for _, c := range b.cohorts {
		c.Evaluate(ctx, values, r)
	}
}

// Commit implements ga.BatchEvaluator. A level that failed or was cut
// short ends the commit with its own value: a quarantine or poison value
// is never scaled, and the failure is handled once.
func (b *levelBatch) Commit(i int) (float64, bool) {
	var cost float64
	for l, c := range b.cohorts {
		v, cut := c.Commit(i)
		if cut || c.jobs[i].err != nil {
			return v, cut
		}
		cost += b.levels[l].MissPenalty * v
	}
	return cost, false
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
			st, err := ev.evalSpace(ctx, nest, iterspace.NewPermutedBox(ev.box, cur))
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
