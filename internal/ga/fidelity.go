package ga

import (
	"fmt"
	"math"

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

// rungs returns the sample ranges of the ladder's rungs over an n-point
// sample, or with the ladder off the one zero Rung: the whole sample.
func (f Fidelity) rungs(n int) []Rung {
	if !f.Enabled() {
		return []Rung{{}}
	}
	var rungs []Rung
	lo := 0
	for i, hi := range f.Schedule(n) {
		rungs = append(rungs, Rung{Lo: lo, Hi: hi, Index: i + 1})
		lo = hi
	}
	return rungs
}

// emitRung reports one completed ladder rung to the observer; the zero
// Rung is no ladder rung and reports nothing.
func (d *deme) emitRung(r Rung, candidates, promoted, pruned int) {
	if d.emit == nil || r.Index == 0 {
		return
	}
	d.emit(telemetry.EvaluationRung{
		Search: d.cfg.Label, Island: d.island, Rung: r.Index, Points: r.Hi,
		Candidates: candidates, Promoted: promoted, Pruned: pruned,
	})
}
