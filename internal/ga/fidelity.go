package ga

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/telemetry"
)

// Fidelity configures deterministic multi-fidelity evaluation by
// successive halving: every generation's fresh candidates are first
// scored on a coarse prefix of the fixed evaluation sample, ranked, the
// bottom half is pruned at scaled fitness, and the survivors are
// promoted rung by rung — only the finalists pay the full sample. A
// promoted candidate keeps its partial result and evaluates only the
// points it has not seen, so no sample point is ever classified twice.
// Each rung is one cohort of the deme's batch evaluator.
//
// The zero value disables the ladder entirely: Rungs <= 1 evaluates each
// generation as one cohort over the full sample. With the ladder on, a
// run is still a pure function of (spec, evaluator, config): the schedule
// is fixed up front, pruning ranks ties by batch position, and commits
// run in batch order, so fixed seed + fixed schedule is bit-identical at
// any worker or island count.
type Fidelity struct {
	// Rungs is the number of fidelity rungs; 0 or 1 disables the ladder.
	Rungs int
}

// The ladder's fixed shape: each rung's sample prefix is fidelityEta
// times the previous rung's and each pruning keeps ceil(n/fidelityEta)
// survivors (classic successive halving), and the coarsest prefix is
// floored at fidelityFloor points so a tiny first rung never ranks
// candidates on statistical noise alone.
const (
	fidelityEta   = 2.0
	fidelityFloor = 16
)

// Enabled reports whether the ladder is active.
func (f Fidelity) Enabled() bool { return f.Rungs > 1 }

// Validate checks the rung count; the zero value (ladder off) is valid.
func (f Fidelity) Validate() error {
	if f.Rungs < 0 {
		return fmt.Errorf("ga: fidelity rungs %d is negative", f.Rungs)
	}
	return nil
}

// Schedule returns the ascending cumulative sample-prefix sizes of the
// ladder over an n-point sample: rung r scores candidates on the first
// Schedule(n)[r] points. The last rung is always the full sample, sizes
// below the 16-point floor are raised to it, and duplicate sizes
// collapse (a 24-point sample with 3 rungs has fewer distinct prefixes
// than rungs). The schedule depends only on Rungs and n, never on the
// candidates, which is what keeps pruning deterministic.
func (f Fidelity) Schedule(n int) []int {
	if !f.Enabled() || n <= 0 {
		return []int{n}
	}
	sched := make([]int, 0, f.Rungs)
	for r := 0; r < f.Rungs; r++ {
		sz := int(math.Ceil(float64(n) / math.Pow(fidelityEta, float64(f.Rungs-1-r))))
		if sz < fidelityFloor {
			sz = fidelityFloor
		}
		if sz > n {
			sz = n
		}
		if len(sched) == 0 || sz > sched[len(sched)-1] {
			sched = append(sched, sz)
		}
	}
	if sched[len(sched)-1] != n {
		sched = append(sched, n)
	}
	return sched
}

// rungCand tracks one distinct fresh genome through the ladder.
type rungCand struct {
	first   int     // first batch index carrying this genome (rank tie-break)
	members []int   // every batch index carrying it
	values  []int64 // the decoded genome, from its first dispatch on
	seen    int     // sample points committed so far
	score   float64 // objective over those points
	failed  bool    // score is a failure value, latched
}

// fitness is the value a candidate whose ladder stopped records: a
// failure value as committed, the exact objective over the whole sample,
// and below it a deterministic extrapolation (score scaled by
// points/seen), so pruned candidates still rank sensibly in the memo.
func (c *rungCand) fitness(points int) float64 {
	if c.failed || c.seen >= points {
		return c.score
	}
	return c.score * float64(points) / float64(c.seen)
}

// ladder evaluates one generation's batch by successive halving and
// assigns every individual its fitness. It returns the count of assigned
// individuals (always a prefix of the batch) and whether the whole batch
// completed; false means the deme halted mid-ladder — candidates with
// partial results receive scaled fitness, untouched ones stay unassigned,
// and the caller discards or truncates accordingly. force skips the halt
// check for the first fresh candidate's coarsest rung, so the very first
// individual of a run always gets a fitness and a best-so-far exists.
//
// Each rung is one cohort of the deme's batch evaluator over the rung's
// new sample range, so no sample point is classified twice. Dispatch
// walks the rung's candidates in batch order: the halt check, the
// candidate's decoding on its first rung, and the charge of its points.
// The evaluator then scores the dispatched candidates over the range,
// and the commit adds each value to its candidate's score in batch order.
// A failure value (at least QuarantineValue) latches: the candidate keeps
// it unscaled and is never dispatched again. A commit the context cut
// short halts the deme before the rest of the rung, whose candidates keep
// their previous prefix.
func (d *deme) ladder(ctx context.Context, batch []individual, force bool) (int, bool) {
	valued := make([]bool, len(batch))
	assign := func(c *rungCand) {
		v := c.fitness(d.cfg.Points)
		d.memo[string(batch[c.first].bits)] = v
		for _, m := range c.members {
			batch[m].value = v
			valued[m] = true
		}
	}
	// Resolve memo hits and collapse duplicate genomes, in batch order.
	fresh := make([]*rungCand, 0, len(batch))
	byKey := make(map[string]*rungCand, len(batch))
	for i := range batch {
		key := string(batch[i].bits)
		if v, ok := d.memo[key]; ok {
			batch[i].value = v
			valued[i] = true
			d.memoHits++
			continue
		}
		if c, ok := byKey[key]; ok {
			c.members = append(c.members, i)
			continue
		}
		c := &rungCand{first: i, members: []int{i}}
		byKey[key] = c
		fresh = append(fresh, c)
	}

	cohort, prev := fresh, 0
	var run []*rungCand
	var values [][]int64
	for r, upTo := range d.sched {
		run, values = run[:0], values[:0]
		for ci, c := range cohort {
			if c.failed {
				continue
			}
			if !(force && r == 0 && ci == 0) {
				if reason, h := d.checkHalt(ctx, 0); h {
					d.halted, d.haltReason = true, reason
					break
				}
			}
			if c.values == nil {
				c.values = d.spec.Decode(batch[c.first].bits)
			}
			// Points are charged before they are classified, cache-warm or
			// cold alike, so budget trajectories never depend on cache state.
			d.evalPoints += int64(upTo - prev)
			run, values = append(run, c), append(values, c.values)
		}
		if len(run) > 0 {
			d.batch.Evaluate(ctx, values, Rung{Lo: prev, Hi: upTo, Index: r + 1})
		}
		recheck := false // a cut-short evaluation was committed
		for k, c := range run {
			if recheck {
				if reason, h := d.checkHalt(ctx, 0); h {
					d.halted, d.haltReason = true, reason
					break
				}
			}
			var v float64
			v, recheck = d.batch.Commit(k)
			if c.seen == 0 {
				d.evals++
			}
			c.seen = upTo
			if v >= QuarantineValue {
				c.score, c.failed = v, true
			} else {
				c.score += v
			}
		}
		if d.halted {
			break
		}
		prev = upTo
		if r == len(d.sched)-1 {
			// Final rung: the accumulated score over the full sample is the
			// exact single-fidelity objective.
			for _, c := range cohort {
				assign(c)
			}
			d.emitRung(r+1, upTo, len(cohort), 0, 0)
			break
		}
		keep := int(math.Ceil(float64(len(cohort)) / fidelityEta))
		if keep < 1 {
			keep = 1
		}
		if keep >= len(cohort) {
			d.emitRung(r+1, upTo, len(cohort), len(cohort), 0)
			continue
		}
		// Rank ascending by partial score (the GA minimises), ties to the
		// earlier batch position — a total deterministic order.
		order := make([]int, len(cohort))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			ca, cb := cohort[order[a]], cohort[order[b]]
			if ca.score != cb.score {
				return ca.score < cb.score
			}
			return ca.first < cb.first
		})
		kept := make(map[*rungCand]bool, keep)
		for _, oi := range order[:keep] {
			kept[cohort[oi]] = true
		}
		promoted := make([]*rungCand, 0, keep)
		for _, c := range cohort {
			if kept[c] {
				promoted = append(promoted, c)
			} else {
				assign(c)
			}
		}
		d.emitRung(r+1, upTo, len(cohort), len(promoted), len(cohort)-len(promoted))
		cohort = promoted
	}
	if d.halted {
		// Halted mid-ladder: everything with partial results gets its
		// scaled fitness so a truncated generation 0 still ranks.
		for _, c := range cohort {
			if c.seen > 0 && !valued[c.first] {
				assign(c)
			}
		}
	}
	assigned := 0
	for assigned < len(batch) && valued[assigned] {
		assigned++
	}
	return assigned, !d.halted
}

// emitRung reports one completed rung to the observer.
func (d *deme) emitRung(rung, points, candidates, promoted, pruned int) {
	if d.emit == nil {
		return
	}
	d.emit(telemetry.EvaluationRung{
		Search: d.cfg.Label, Island: d.island, Rung: rung, Points: points,
		Candidates: candidates, Promoted: promoted, Pruned: pruned,
	})
}
