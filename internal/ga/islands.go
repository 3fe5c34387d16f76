package ga

import (
	"math"
	"sync"

	"repro/internal/telemetry"
)

// This file holds the island model behind Config.Islands: the population
// is split into N demes, each evolving on its own PCG stream, with
// ring-topology migration of each island's best individual every
// migrationInterval generations and a deterministic merge of the
// per-island results.
//
// Determinism is the design constraint everything bends around. Each
// island's RNG stream is derived from Seed1/Seed2 and the island index
// alone, every deme advances an exact number of generations between
// barriers, and all cross-island effects (migration, telemetry flushes,
// checkpoints, the final merge) happen serially in island order at the
// barriers. Goroutines only parallelise the stretches between barriers,
// where demes share nothing, so the result is a pure function of
// (spec, objective, config) at any worker interleaving.

// migrationInterval is the number of generations each island evolves
// between migration barriers; at each barrier every island sends its one
// best individual to its ring successor.
const migrationInterval = 5

// splitmix64 is the SplitMix64 finalizer; it turns structured seed inputs
// (seed XOR island index) into statistically independent PCG seeds.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// islandSeeds derives island i's PCG seed pair. The derivation depends
// only on the run's seeds and the island index — not the island count —
// and island 0's stream deliberately differs from the single-population
// (Seed1, Seed2) stream: a multi-island run is a different algorithm and
// must not be conflated with one population by a seed collision.
func islandSeeds(cfg Config, island int) (uint64, uint64) {
	k := uint64(island) + 1
	return splitmix64(cfg.Seed1 ^ (k * 0x9e3779b97f4a7c15)),
		splitmix64(cfg.Seed2 ^ (k * 0xd1342543de82ef95))
}

// islandSizes splits popSize across n demes as evenly as possible, the
// remainder going to the lowest-indexed islands.
func islandSizes(popSize, n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = popSize / n
		if i < popSize%n {
			sizes[i]++
		}
	}
	return sizes
}

// islandBudgets splits a MaxEvaluations budget the same way (0 stays
// unlimited for every deme).
func islandBudgets(budget, n int) []int {
	out := make([]int, n)
	if budget <= 0 {
		return out
	}
	for i := range out {
		out[i] = budget / n
		if i < budget%n {
			out[i]++
		}
	}
	return out
}

// parallelDemes runs fn over the demes concurrently and waits for all of
// them; the first captured panic is re-raised only after every goroutine
// has drained, so a panicking objective cannot leak demes mid-barrier. A
// lone deme runs inline.
func parallelDemes(ds []*deme, fn func(*deme)) {
	if len(ds) == 1 {
		fn(ds[0])
		return
	}
	var wg sync.WaitGroup
	panics := make([]any, len(ds))
	for i, d := range ds {
		wg.Add(1)
		go func(i int, d *deme) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			fn(d)
		}(i, d)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// elite returns a deep copy of the population's best individual (lowest
// value, ties to the lower index). Every deme holds at least one
// evaluated individual: the first evaluation of a run is forced.
func elite(pop []individual) individual {
	bi := 0
	for i := range pop {
		if pop[i].value < pop[bi].value {
			bi = i
		}
	}
	return individual{bits: cloneBits(pop[bi].bits), value: pop[bi].value}
}

// receiveMigrant replaces the deme's worst individual (highest value,
// ties to the higher index) with the incoming elite and records its
// objective value in the memo — valid because every island evaluates the
// same objective over the same sample.
func (d *deme) receiveMigrant(m individual) {
	wi := 0
	for i := 1; i < len(d.pop); i++ {
		if d.pop[i].value >= d.pop[wi].value {
			wi = i
		}
	}
	d.pop[wi] = individual{bits: cloneBits(m.bits), value: m.value}
	d.memo[string(m.bits)] = m.value
}

// migrate performs one simultaneous ring exchange: every island's elite
// is snapshotted first, then each still-active island i receives the
// elite of its ring predecessor (i-1+N) mod N. Returned events are the
// buffered IslandMigration records in island order.
func migrate(demes []*deme, observed bool) []telemetry.Event {
	n := len(demes)
	elites := make([]individual, n)
	for i, d := range demes {
		elites[i] = elite(d.pop)
	}
	var events []telemetry.Event
	for i, d := range demes {
		if !d.active() {
			// A finished deme's population is final; it still donates its
			// elite to its ring successor above.
			continue
		}
		from := (i - 1 + n) % n
		d.receiveMigrant(elites[from])
		if observed {
			events = append(events, telemetry.IslandMigration{
				Search: d.cfg.Label, From: from + 1, To: i + 1, Gen: d.gen,
			})
		}
	}
	return events
}

// stopRank orders halt reasons for the merged Stopped field: the most
// externally forceful reason wins across islands.
func stopRank(r StopReason) int {
	switch r {
	case StopCancelled:
		return 3
	case StopDeadline:
		return 2
	case StopBudget:
		return 1
	default:
		return 0
	}
}

// mergeResult folds the per-island outcomes into one Result: best of the
// bests (ties to the lower island), summed evaluations, the maximum
// generation count, a size-weighted merged history and the most forceful
// stop reason. A lone deme's history is returned as recorded: the merge
// would rescale Avg by size/size, which float64 does not always undo.
func mergeResult(demes []*deme, warnings []string) Result {
	var res Result
	res.BestValue = math.Inf(1)
	res.Warnings = warnings
	for _, d := range demes {
		res.Evaluations += d.evals
		if d.gen > res.Generations {
			res.Generations = d.gen
		}
		if d.best == nil {
			continue
		}
		if res.Best == nil || d.bestValue < res.BestValue {
			res.BestValue = d.bestValue
			res.Best = append([]int64(nil), d.best...)
		}
	}
	for _, d := range demes {
		if d.halted && stopRank(d.haltReason) > stopRank(res.Stopped) {
			res.Stopped = d.haltReason
		}
	}
	if len(demes) == 1 {
		res.History = demes[0].history
		return res
	}
	// Merge histories generation by generation: Best is the min across
	// islands, Avg weights each island by its population share, BestEver
	// is the running cross-island minimum (monotone by construction).
	bestEver := math.Inf(1)
	for g := 0; g <= res.Generations; g++ {
		var (
			st     GenStats
			weight int
			any    bool
		)
		st.Gen = g
		st.Best = math.Inf(1)
		st.Converged = true
		for _, d := range demes {
			if g >= len(d.history) {
				continue
			}
			h := d.history[g]
			if !any {
				any = true
			}
			if h.Best < st.Best {
				st.Best = h.Best
			}
			st.Avg += h.Avg * float64(d.size)
			weight += d.size
			if h.BestEver < bestEver {
				bestEver = h.BestEver
			}
			st.Converged = st.Converged && h.Converged
		}
		if !any {
			break
		}
		st.Avg /= float64(weight)
		st.BestEver = bestEver
		res.History = append(res.History, st)
	}
	return res
}

// allComplete reports that every island sits on a clean boundary: full
// population evaluated and no deme halted. A halted deme's state is
// frozen at the instant its bound fired — mid-generation RNG position,
// possibly a partial generation-0 population — which depends on *which*
// bound (budget slice, deadline, cancellation) interrupted it. Writing
// that state would poison the resume contract: a snapshot chain must
// contain only states the same seed reaches under any bound, so that
// resuming an interrupted run with a different (or no) budget replays
// the uninterrupted search exactly. Demes stopped by their schedule
// (done) are complete by definition and budget-independent.
func allComplete(demes []*deme) bool {
	for _, d := range demes {
		if d.halted || len(d.pop) != d.size {
			return false
		}
	}
	return true
}
