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
//
// The zero value disables the ladder entirely: Rungs <= 1 evaluates one
// candidate at a time over the full sample. With the ladder on, a run is
// still a pure function of (spec, evaluator, config): the schedule is
// fixed up front, pruning ranks ties by batch position, and nothing
// depends on goroutine scheduling, so fixed seed + fixed schedule is
// bit-identical at any worker or island count.
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

// FidelityEvaluator opens partial evaluations for the ladder. The
// sampling layer implements it over the search's fixed sample; Points
// is the full sample size the schedule is built from.
type FidelityEvaluator interface {
	// Points is the full-fidelity sample size.
	Points() int
	// Open starts one candidate's evaluation. values is the decoded
	// genome; the returned PartialEval accumulates classified points
	// across rungs.
	Open(values []int64) PartialEval
}

// PartialEval is one candidate's resumable evaluation state.
type PartialEval interface {
	// Score extends the evaluation through the first upTo sample points
	// — only the unseen range is computed; previously classified points
	// are kept — and returns the raw objective over those points. rung
	// is the 1-based rung index, for telemetry and profiling attribution
	// only; it must not change the result. A failed evaluation reports
	// its failure fitness (poison or quarantine sentinel) and latches.
	Score(upTo, rung int) float64
	// Fitness returns the value recorded for a candidate whose ladder
	// stopped after upTo points: the exact objective at full fidelity,
	// and a deterministic extrapolation (score scaled by N/upTo) below
	// it, so pruned candidates still rank sensibly in the memo.
	Fitness(upTo int) float64
}

// rungCand tracks one distinct fresh genome through the ladder.
type rungCand struct {
	first   int   // first batch index carrying this genome (rank tie-break)
	members []int // every batch index carrying it
	pe      PartialEval
	seen    int
	score   float64
}

// ladder evaluates one generation's batch by successive halving and
// assigns every individual its fitness. It returns the count of assigned
// individuals (always a prefix of the batch) and whether the whole batch
// completed; false means the deme halted mid-ladder — candidates with
// partial results receive scaled fitness, untouched ones stay unassigned,
// and the caller discards or truncates accordingly. force skips the halt
// check for the first fresh candidate's coarsest rung, so the very first
// individual of a run always gets a fitness and a best-so-far exists.
func (d *deme) ladder(ctx context.Context, batch []individual, force bool) (int, bool) {
	valued := make([]bool, len(batch))
	assign := func(c *rungCand, v float64) {
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

	cohort := fresh
	completed := true
ladder:
	for r, upTo := range d.sched {
		for ci, c := range cohort {
			if !(force && r == 0 && ci == 0) {
				if !d.halted {
					if reason, h := d.checkHalt(ctx, 0); h {
						d.halted, d.haltReason = true, reason
					}
				}
				if d.halted {
					completed = false
					break ladder
				}
			}
			if c.pe == nil {
				c.pe = d.fe.Open(d.spec.Decode(batch[c.first].bits))
				d.evals++
			}
			// Points are charged before they are classified, cache-warm or
			// cold alike, so budget trajectories never depend on cache state.
			d.evalPoints += int64(upTo - c.seen)
			c.score = c.pe.Score(upTo, r+1)
			c.seen = upTo
		}
		if r == len(d.sched)-1 {
			// Final rung: the accumulated score over the full sample is the
			// exact single-fidelity objective.
			for _, c := range cohort {
				assign(c, c.pe.Fitness(c.seen))
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
				assign(c, c.pe.Fitness(c.seen))
			}
		}
		d.emitRung(r+1, upTo, len(cohort), len(promoted), len(cohort)-len(promoted))
		cohort = promoted
	}
	if !completed {
		// Halted mid-ladder: everything with partial results gets its
		// scaled fitness so a truncated generation 0 still ranks.
		for _, c := range cohort {
			if c.pe != nil && c.seen > 0 && !valued[c.first] {
				assign(c, c.pe.Fitness(c.seen))
			}
		}
	}
	assigned := 0
	for assigned < len(batch) && valued[assigned] {
		assigned++
	}
	return assigned, completed
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
