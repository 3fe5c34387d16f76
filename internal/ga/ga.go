package ga

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/telemetry"
)

// Objective evaluates one decoded individual and returns the quantity to
// MINIMISE (the paper minimises the number of replacement misses).
type Objective func(values []int64) float64

// QuarantineValue is the objective value of a candidate whose evaluation
// failed and was set aside: the largest finite float64, so it never
// competes yet stays JSON-encodable in checkpointed memos. A generation's
// average (GenStats.Avg) covers only the members below it.
const QuarantineValue = math.MaxFloat64

// BatchEvaluator evaluates a deme's cohorts: one per rung of each
// generation, holding the decoded candidates the rung dispatched, in batch
// order. With the fidelity ladder off a generation has one rung, the zero
// Rung, and its cohort is every candidate that missed the deme's memo.
// Evaluate scores them over the sample range r and may classify them
// concurrently; it returns once every one has finished. The deme then
// commits them with Commit, serially in batch order, and stops at the
// first halt, so only a prefix of a cohort may be committed. Commit
// publishes candidate i's side effects (telemetry, failure handling) and
// returns its objective value over r. cutShort reports that the context
// stopped the evaluation before it finished: like serial evaluation, the
// deme commits that candidate and re-checks its halt before the next
// miss. Equal inputs must give equal values at any scheduling, since the
// memo and migration carry values across demes.
type BatchEvaluator interface {
	Evaluate(ctx context.Context, values [][]int64, r Rung)
	Commit(i int) (value float64, cutShort bool)
}

// Rung is the part of the evaluation sample a cohort covers: the sample
// points [Lo, Hi) of fidelity rung Index (1-based). The zero Rung is the
// whole sample, which every evaluation outside the ladder covers.
type Rung struct{ Lo, Hi, Index int }

// Serial returns a BatchEvaluator that calls obj one candidate at a time
// on the calling goroutine, so obj need not be safe for concurrent use.
// obj scores the whole sample, so Serial serves only the zero Rung. Like
// serial evaluation it starts no candidate once ctx has ended: the last
// one it evaluated then reports cutShort.
func Serial(obj Objective) BatchEvaluator { return &serialBatch{obj: obj} }

type serialBatch struct {
	obj     Objective
	values  []float64
	stopped bool // ctx ended after the last evaluated candidate
}

func (s *serialBatch) Evaluate(ctx context.Context, values [][]int64, _ Rung) {
	s.values, s.stopped = s.values[:0], false
	for _, v := range values {
		s.values = append(s.values, s.obj(v))
		if ctx.Err() != nil {
			s.stopped = true
			return
		}
	}
}

func (s *serialBatch) Commit(i int) (float64, bool) {
	return s.values[i], s.stopped && i == len(s.values)-1
}

// CrossoverKind selects the recombination operator.
type CrossoverKind int

const (
	// SinglePoint is the paper's simple crossover (Figure 5): swap the
	// tails after one random site.
	SinglePoint CrossoverKind = iota
	// TwoPoint swaps the segment between two random sites.
	TwoPoint
	// Uniform swaps each bit independently with probability 1/2.
	Uniform
)

func (k CrossoverKind) String() string {
	switch k {
	case TwoPoint:
		return "two-point"
	case Uniform:
		return "uniform"
	default:
		return "single-point"
	}
}

// Params holds the algorithm's parameters (§3.2–3.3). The zero value is
// invalid; use PaperParams for the settings of §3.3.
type Params struct {
	PopSize       int           // population size N
	Crossover     CrossoverKind // recombination operator (default: the paper's single-point)
	CrossoverProb float64       // probability a selected pair crosses over
	MutationProb  float64       // per-bit flip probability
	MinGens       int           // generations always run (Figure 7: 15)
	MaxGens       int           // hard generation cap (Figure 7: 25)
	ConvergeFrac  float64       // best-vs-average convergence threshold (0.02)
	Seed1, Seed2  uint64        // PCG seed
}

// PaperParams returns the parameters the paper found to give near-optimal
// results: population 30, crossover 0.9, mutation 0.001, 15–25 generations
// with 2% convergence.
func PaperParams(seed uint64) Params {
	return Params{
		PopSize:       30,
		CrossoverProb: 0.9,
		MutationProb:  0.001,
		MinGens:       15,
		MaxGens:       25,
		ConvergeFrac:  0.02,
		Seed1:         seed,
		Seed2:         seed ^ 0x9e3779b97f4a7c15,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.PopSize < 2:
		return fmt.Errorf("ga: population %d < 2", p.PopSize)
	case p.CrossoverProb < 0 || p.CrossoverProb > 1:
		return fmt.Errorf("ga: crossover probability %v", p.CrossoverProb)
	case p.MutationProb < 0 || p.MutationProb > 1:
		return fmt.Errorf("ga: mutation probability %v", p.MutationProb)
	case p.MinGens < 1 || p.MaxGens < p.MinGens:
		return fmt.Errorf("ga: generation schedule %d..%d", p.MinGens, p.MaxGens)
	case p.ConvergeFrac < 0:
		return fmt.Errorf("ga: convergence fraction %v", p.ConvergeFrac)
	}
	return nil
}

// Config is one run: the algorithm's Params plus the wiring of the run
// (seed individuals, islands, fidelity ladder, budget, telemetry and
// checkpointing).
type Config struct {
	Params
	// SeedValues are decoded-value vectors injected into the otherwise
	// random initial population (standard heuristic seeding). On search
	// spaces with huge per-variable ranges a uniform initial population
	// can miss the interesting region entirely; a couple of heuristic
	// individuals give selection a foothold. At most PopSize-1 seeds are
	// used, so the population always keeps random diversity; supplying
	// more is not an error, but the excess seeds are dropped and the run
	// reports it on Result.Warnings. With Islands > 1 the seeds are dealt
	// round-robin across the islands, each clamped to its deme size minus
	// one on the same terms.
	SeedValues [][]int64

	// Islands splits the population into this many demes evolved
	// concurrently (the island model), with ring-topology migration of
	// each island's best individual every 5 generations. 0 or 1 runs a
	// single population: one deme on the (Seed1, Seed2) stream with no
	// migration. Each island of a multi-island run owns a PCG stream
	// derived from Seed1/Seed2 and its island index alone, so a run is
	// bit-reproducible for a fixed seed at any island count, and demes
	// advance between barriers independent of goroutine scheduling.
	Islands int
	// Batch, when non-nil, supplies deme i's batch evaluator (i is the
	// 0-based deme index; a single population is deme 0), which the deme
	// calls once per generation with its memo misses; obj is then unused.
	// Separate evaluators let demes evaluate concurrently without sharing
	// state, and must compute identical values for identical inputs. When
	// nil, each deme calls obj one candidate at a time (Serial), and obj
	// must be safe for concurrent calls if Islands > 1.
	Batch func(deme int) BatchEvaluator

	// Fidelity enables deterministic successive-halving evaluation: each
	// generation's fresh candidates are ranked on coarse sample prefixes
	// and the bottom fraction pruned before anyone pays full fidelity.
	// Each rung is one cohort of the deme's batch evaluator over the
	// rung's new sample range. The zero value (off) gives each generation
	// one rung, the zero Rung: one cohort over the whole sample. Enabled
	// fidelity requires Batch and Points. With the ladder on,
	// MaxEvaluations is accounted in sample points: the budget is
	// MaxEvaluations × Points points classified, so the knob keeps its
	// full-fidelity meaning proportionally.
	Fidelity Fidelity
	// Points is the size of the sample the batch evaluator scores: the
	// fidelity ladder's schedule divides it into rungs. Only the ladder
	// reads it; the zero Rung needs no size, so a run without fidelity
	// may leave it 0.
	Points int

	// MaxEvaluations caps the number of distinct objective evaluations
	// (0 = unlimited). When the budget runs out the search halts with
	// StopBudget and returns the best individual evaluated so far. The
	// very first individual is always evaluated so a best-so-far exists.
	MaxEvaluations int
	// Observer, when non-nil, receives the typed telemetry stream: one
	// GenerationDone event after the initial population and after every
	// completed generation, a CheckpointWritten event per snapshot, and
	// Evaluations/MemoHits counter deltas flushed at the same boundaries.
	// A nil Observer costs a single pointer check per generation, keeping
	// the unobserved search path allocation-free.
	Observer telemetry.Recorder
	// Checkpoint, when non-nil, receives a resumable snapshot at every
	// barrier where no deme has halted: after the initial population and
	// after every completed generation of a single population, after
	// every migration round of an island run. A snapshot error aborts the
	// run.
	Checkpoint func(*Checkpoint) error
	// ResumeFrom restarts the search from a snapshot instead of a fresh
	// random population. The resumed run replays the interrupted one
	// deterministically (same spec, objective and config required).
	ResumeFrom *Checkpoint
	// Label tags written checkpoints and is matched against ResumeFrom's
	// label, guarding against resuming the wrong search phase.
	Label string
}

// PaperConfig returns a run of the paper's parameters (PaperParams) with
// no run wiring.
func PaperConfig(seed uint64) Config { return Config{Params: PaperParams(seed)} }

// Validate checks the parameters and the run wiring.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Islands < 0 {
		return fmt.Errorf("ga: island count %d", c.Islands)
	}
	if err := c.Fidelity.Validate(); err != nil {
		return err
	}
	if c.Islands > 1 {
		if c.PopSize < 2*c.Islands {
			return fmt.Errorf("ga: population %d cannot fill %d islands with at least 2 individuals each", c.PopSize, c.Islands)
		}
		if c.MaxEvaluations > 0 && c.MaxEvaluations < c.Islands {
			return fmt.Errorf("ga: evaluation budget %d is below the island count %d (every island force-evaluates one individual)", c.MaxEvaluations, c.Islands)
		}
	}
	return nil
}

// GenStats records one generation for convergence analysis.
type GenStats struct {
	Gen       int
	Best      float64 // best (lowest) objective in the generation
	Avg       float64 // average objective of the members below QuarantineValue
	BestEver  float64 // best seen so far across generations
	Converged bool
}

// Result is the outcome of a run.
type Result struct {
	Best        []int64 // decoded best-ever individual
	BestValue   float64 // its objective value
	Generations int     // generations executed
	Evaluations int     // objective calls (cache misses of the memo table)
	History     []GenStats
	// Stopped records why the run ended. Best/BestValue are valid for
	// every reason; only StopConverged means the Figure-7 schedule ran
	// to its natural end.
	Stopped StopReason
	// Warnings lists non-fatal configuration adjustments the run made
	// (e.g. seed individuals dropped because SeedValues exceeded the
	// PopSize-1 injection cap). Empty on a clean run.
	Warnings []string
}

type individual struct {
	bits  []byte
	value float64
}

// Run executes the genetic algorithm of Figure 4 with the termination
// schedule of Figure 7 and returns the best individual found. Objective
// values are memoised per decoded genome, so Evaluations counts distinct
// candidate solutions examined.
//
// A single population (Islands <= 1) is one deme on the (Seed1, Seed2)
// stream, run inline with a barrier after every generation and no
// migration; Islands > 1 evolves that many demes concurrently between
// migration barriers. At every barrier, serially and in island order, the
// run flushes telemetry, migrates each island's best individual and
// writes a checkpoint, so the result is a pure function of (spec,
// objective, config) at any goroutine interleaving.
//
// The run is bounded and interruptible: it honours ctx cancellation and
// deadlines plus cfg.MaxEvaluations, halting between objective calls and
// returning the best-so-far Result tagged with the StopReason — never an
// error. A generation interrupted mid-flight is discarded wholesale, so
// the retained state always sits on a generation boundary and a
// checkpoint written there resumes deterministically.
func Run(ctx context.Context, spec Spec, obj Objective, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(spec.Chroms) == 0 {
		return Result{}, fmt.Errorf("ga: empty genome spec")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := max(cfg.Islands, 1)
	interval := migrationInterval
	if n == 1 {
		interval = 1
	}
	if cfg.Fidelity.Enabled() && (cfg.Batch == nil || cfg.Points <= 0) {
		return Result{}, fmt.Errorf("ga: fidelity needs a batch evaluator and a positive sample size (Points %d)", cfg.Points)
	}
	start := time.Now()
	sizes := islandSizes(cfg.PopSize, n)
	budgets := islandBudgets(cfg.MaxEvaluations, n)
	demes := make([]*deme, n)
	for i := range demes {
		demes[i] = newDeme(spec, obj, cfg, i, sizes[i], budgets[i], start)
	}

	// flush forwards buffered per-island events and counter deltas to the
	// observer, serially in island order. Deltas (not totals) compose
	// across resumed runs and multi-phase searches sharing one recorder.
	flush := func() {
		if cfg.Observer == nil {
			return
		}
		for _, d := range demes {
			for _, e := range d.events {
				cfg.Observer.Event(e)
			}
			d.events = d.events[:0]
			dE, dM := d.evals-d.flushedEvals, d.memoHits-d.flushedMemoHits
			if dE != 0 || dM != 0 {
				cfg.Observer.Add(telemetry.Counters{Evaluations: uint64(dE), MemoHits: uint64(dM)})
				d.flushedEvals, d.flushedMemoHits = d.evals, d.memoHits
			}
		}
	}
	defer flush()

	round := 0
	snapshot := func() error {
		if cfg.Checkpoint == nil {
			return nil
		}
		cp, err := checkpointOf(demes, cfg, spec.TotalBits(), round)
		if err != nil {
			return err
		}
		if err := cfg.Checkpoint(cp); err != nil {
			return err
		}
		if cfg.Observer != nil {
			individuals, memoEntries := 0, 0
			for _, d := range demes {
				individuals += len(d.pop)
				memoEntries += len(d.memo)
			}
			cfg.Observer.Event(telemetry.CheckpointWritten{
				Search: cfg.Label, Gen: cp.Gen,
				Individuals: individuals, MemoEntries: memoEntries,
			})
		}
		return nil
	}

	var warnings []string
	if cp := cfg.ResumeFrom; cp != nil {
		if err := cp.validate(spec, cfg); err != nil {
			return Result{}, err
		}
		if cfg.Fidelity.Enabled() && cp.Fidelity != nil && cp.Fidelity.Points != cfg.Points {
			return Result{}, fmt.Errorf("ga: checkpoint records a %d-point sample, run has %d", cp.Fidelity.Points, cfg.Points)
		}
		states, r := cp.demeStates()
		for i, d := range demes {
			if err := d.restore(states[i]); err != nil {
				return Result{}, err
			}
		}
		round = r
	} else {
		// Deal the seed individuals round-robin across the demes so every
		// one gets a heuristic foothold, then build generation 0 and
		// flush/checkpoint at the first barrier.
		seeds := make([][][]int64, n)
		for j, sv := range cfg.SeedValues {
			seeds[j%n] = append(seeds[j%n], sv)
		}
		for i, d := range demes {
			warnings = append(warnings, seedClampWarnings(len(seeds[i]), sizes[i], d.island-1)...)
		}
		parallelDemes(demes, func(d *deme) { d.initPopulation(ctx, seeds[d.idx]) })
		flush()
		if allComplete(demes) {
			if err := snapshot(); err != nil {
				return Result{}, err
			}
		}
	}

	for {
		var active []*deme
		for _, d := range demes {
			if d.active() {
				active = append(active, d)
			}
		}
		if len(active) == 0 {
			break
		}
		round++
		target, lastGen := round*interval, demes[0].gen
		parallelDemes(active, func(d *deme) { d.advance(ctx, target) })
		flush()
		if n > 1 {
			// A ring of one deme would migrate its elites into itself.
			for _, e := range migrate(demes, cfg.Observer != nil) {
				cfg.Observer.Event(e)
			}
		}
		// A lone deme snapshots only rounds that completed a generation;
		// island runs snapshot every clean barrier.
		if allComplete(demes) && (n > 1 || demes[0].gen > lastGen) {
			if err := snapshot(); err != nil {
				return Result{}, err
			}
		}
	}
	return mergeResult(demes, warnings), nil
}

// deme is one population evolving the Figure-4/6/7 algorithm: its own RNG
// stream, memo table, evaluation-budget share and schedule state. A
// single-population run is one deme; the island model runs several.
type deme struct {
	idx    int // 0-based island index
	island int // telemetry tag: idx+1 in an island run, 0 for a lone deme
	spec   Spec
	cfg    Config
	batch  BatchEvaluator
	size   int // target population size

	src *rand.PCG
	rng *rand.Rand
	pop []individual

	memo     map[string]float64
	evals    int
	memoHits int
	budget   int // this deme's MaxEvaluations share (0 = unlimited)

	// rungs are the sample ranges each generation's fresh candidates
	// climb: the one zero Rung with the fidelity ladder off. evalPoints
	// counts the points charged to them, and pointBudget is the ladder's
	// budget share in points (budget × cfg.Points, 0 = unlimited).
	rungs       []Rung
	evalPoints  int64
	pointBudget int64

	gen       int
	history   []GenStats
	best      []int64
	bestValue float64

	halted     bool
	haltReason StopReason
	done       bool // the Figure-7 schedule stopped this deme

	// emit delivers telemetry events (nil = unobserved): straight to the
	// observer for a lone deme, into events for island demes, whose
	// buffers the run flushes in island order at the barriers.
	// flushedEvals/flushedMemoHits track the counters already reported.
	emit            func(telemetry.Event)
	events          []telemetry.Event
	flushedEvals    int
	flushedMemoHits int

	start time.Time
}

// newDeme builds deme i of a run. A lone deme draws from the run's own
// (Seed1, Seed2) stream; island demes take islandSeeds. Every deme takes
// its own batch evaluator.
func newDeme(spec Spec, obj Objective, cfg Config, i, size, budget int, start time.Time) *deme {
	d := &deme{
		idx: i, spec: spec, cfg: cfg, size: size,
		memo: map[string]float64{}, budget: budget,
		bestValue: math.Inf(1), start: start,
	}
	if cfg.Batch != nil {
		d.batch = cfg.Batch(i)
	} else {
		d.batch = Serial(obj)
	}
	s1, s2 := cfg.Seed1, cfg.Seed2
	if cfg.Islands > 1 {
		d.island = i + 1
		s1, s2 = islandSeeds(cfg, i)
	}
	d.src = rand.NewPCG(s1, s2)
	d.rng = rand.New(d.src)
	if cfg.Observer != nil {
		d.emit = cfg.Observer.Event
		if cfg.Islands > 1 {
			d.emit = func(e telemetry.Event) { d.events = append(d.events, e) }
		}
	}
	d.rungs = cfg.Fidelity.rungs(cfg.Points)
	if cfg.Fidelity.Enabled() && budget > 0 {
		d.pointBudget = int64(budget) * int64(cfg.Points)
	}
	return d
}

// active reports whether the deme still evolves.
func (d *deme) active() bool { return !d.halted && !d.done }

// checkHalt reports whether the deme must stop before spending another
// objective evaluation, and why: context first, then its budget share,
// counting pending evaluations dispatched but not yet committed.
func (d *deme) checkHalt(ctx context.Context, pending int) (StopReason, bool) {
	select {
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return StopDeadline, true
		}
		return StopCancelled, true
	default:
	}
	if d.cfg.Fidelity.Enabled() {
		if d.pointBudget > 0 && d.evalPoints >= d.pointBudget {
			return StopBudget, true
		}
	} else if d.budget > 0 && d.evals+pending >= d.budget {
		return StopBudget, true
	}
	return StopConverged, false
}

// initPopulation builds and evaluates generation 0 (Figure 4: "Supply a
// population P0"): this deme's seed individuals first (clamped to size-1
// so random diversity survives), random bits for the rest. The first
// individual is force-evaluated so a best-so-far always exists; a halt
// keeps the evaluated prefix.
func (d *deme) initPopulation(ctx context.Context, seeds [][]int64) {
	d.pop = make([]individual, d.size)
	for i := range d.pop {
		if i < len(seeds) && i < d.size-1 {
			d.pop[i].bits = d.spec.Encode(seeds[i])
			continue
		}
		bits := make([]byte, d.spec.TotalBits())
		for b := range bits {
			bits[b] = byte(d.rng.IntN(2))
		}
		d.pop[i].bits = bits
	}
	assigned, _ := d.evaluate(ctx, d.pop, true)
	d.pop = d.pop[:assigned]
	d.record()
}

// advance evolves the deme up to the target generation (the next
// barrier), stopping early when its Figure-7 schedule fires or a halt
// (context, budget share) lands. Each call makes progress: it either
// completes generations, sets done, or sets halted.
func (d *deme) advance(ctx context.Context, target int) {
	for d.active() && d.gen < target {
		switch {
		case d.gen < d.cfg.MinGens:
		case d.gen < d.cfg.MaxGens && !d.history[len(d.history)-1].Converged:
		default:
			d.done = true
			return
		}
		if r, h := d.checkHalt(ctx, 0); h {
			d.halted, d.haltReason = true, r
			return
		}
		next := d.breed()
		if _, ok := d.evaluate(ctx, next, false); !ok {
			// Halted mid-generation: the partial generation is discarded
			// and the deme stays on its last completed boundary.
			return
		}
		d.gen++
		d.pop = next
		d.record()
	}
}

// breed applies selection, crossover and mutation (Figure 6) and returns
// the unevaluated offspring. Evaluation consumes no randomness, so
// breeding the whole generation before evaluating it draws the same
// genome sequence as interleaving the two.
func (d *deme) breed() []individual {
	selected := selectRSS(d.pop, d.rng)
	next := make([]individual, 0, len(d.pop))
	// Pair consecutive selected individuals (Figure 5).
	for i := 0; i+1 < len(selected); i += 2 {
		a := cloneBits(selected[i].bits)
		b := cloneBits(selected[i+1].bits)
		if d.rng.Float64() < d.cfg.CrossoverProb {
			crossover(d.cfg.Crossover, a, b, d.rng)
		}
		next = append(next, individual{bits: a}, individual{bits: b})
	}
	if len(next) < len(d.pop) { // odd population: carry the last selection
		next = append(next, individual{bits: cloneBits(selected[len(selected)-1].bits)})
	}
	// Mutation: flip each bit with probability MutationProb.
	for i := range next {
		for b := range next[i].bits {
			if d.rng.Float64() < d.cfg.MutationProb {
				next[i].bits[b] ^= 1
			}
		}
	}
	return next
}

// evaluate assigns every individual of batch its fitness. It returns how
// many individuals were assigned (always a prefix of batch) and whether
// that is all of them; false means the deme halted. force exempts the
// first fresh genome's first rung from the halt check, so the very first
// individual of a run always gets a fitness and a best-so-far exists.
//
// Memo hits take their recorded value and repeats of an earlier genome
// share its candidate. The distinct fresh genomes then climb the deme's
// rungs: the one zero Rung (the whole sample) with the fidelity ladder
// off, the successive-halving schedule with it on. Each rung is one
// cohort of the batch evaluator over the rung's new sample range, so no
// sample point is classified twice. Dispatch walks the rung's candidates
// in batch order: the halt check (the budget counting what the rung
// already dispatched) and the charge of the rung's points. It stops at
// the first candidate that must halt, the prefix serial evaluation
// reaches. The batch evaluator scores every dispatched candidate, and the
// commit walks them in batch order again, adding each value to its
// candidate's score. A failure value (at least QuarantineValue) latches:
// the candidate keeps it unscaled and is never dispatched again. A commit
// the context cut short halts the deme before the rest of the rung, whose
// candidates keep their previous prefix. Between rungs the ladder promotes
// the ceil(n/eta) best partial scores, ties to the earlier batch position,
// and the others record their extrapolated fitness. After a halt every
// candidate with a committed rung records its fitness, so a truncated
// generation 0 still ranks.
func (d *deme) evaluate(ctx context.Context, batch []individual, force bool) (int, bool) {
	valued := make([]bool, len(batch))
	assign := func(c *rungCand) {
		v := c.fitness(d.cfg.Points, len(d.rungs))
		d.memo[c.key] = v
		for _, m := range c.members {
			batch[m].value, valued[m] = v, true
		}
	}
	cohort := make([]*rungCand, 0, len(batch))
	byKey := make(map[string]*rungCand, len(batch))
	for i := range batch {
		key := string(batch[i].bits)
		if v, ok := d.memo[key]; ok {
			batch[i].value, valued[i] = v, true
		} else if c, ok := byKey[key]; ok {
			c.members = append(c.members, i)
		} else {
			byKey[key] = &rungCand{key: key, first: i, members: []int{i}}
			cohort = append(cohort, byKey[key])
		}
	}

	evals := d.evals
	var run []*rungCand
	var values [][]int64
	for r, rung := range d.rungs {
		run, values = run[:0], values[:0]
		for ci, c := range cohort {
			if c.failed {
				continue
			}
			if !(force && r == 0 && ci == 0) {
				if reason, h := d.checkHalt(ctx, len(run)); h {
					d.halted, d.haltReason = true, reason
					break
				}
			}
			// Points are charged before they are classified, cache-warm or
			// cold alike, so budget trajectories never depend on cache state.
			d.evalPoints += int64(rung.Hi - rung.Lo)
			if c.values == nil {
				c.values = d.spec.Decode(batch[c.first].bits)
			}
			run, values = append(run, c), append(values, c.values)
		}
		if len(run) > 0 {
			d.batch.Evaluate(ctx, values, rung)
		}
		recheck := false // a cut-short evaluation was committed
		for i, c := range run {
			if recheck {
				if reason, h := d.checkHalt(ctx, 0); h {
					d.halted, d.haltReason = true, reason
					break
				}
			}
			var v float64
			v, recheck = d.batch.Commit(i)
			if c.rungs == 0 {
				d.evals++
			}
			c.commit(v, rung.Hi)
		}
		if d.halted {
			break
		}
		if r == len(d.rungs)-1 {
			// Final rung: the accumulated score over the full sample is the
			// exact single-fidelity objective.
			for _, c := range cohort {
				assign(c)
			}
			d.emitRung(rung, len(cohort), 0, 0)
			break
		}
		keep := max(int(math.Ceil(float64(len(cohort))/fidelityEta)), 1)
		if keep >= len(cohort) {
			d.emitRung(rung, len(cohort), len(cohort), 0)
			continue
		}
		// Rank ascending by partial score (the GA minimises); the cohort is
		// in batch order, so the stable sort sends ties to the earlier
		// batch position — a total deterministic order.
		ranked := slices.Clone(cohort)
		slices.SortStableFunc(ranked, func(a, b *rungCand) int { return cmp.Compare(a.score, b.score) })
		for _, c := range ranked[keep:] {
			assign(c)
		}
		promoted := make([]*rungCand, 0, keep)
		for _, c := range cohort {
			if !valued[c.first] {
				promoted = append(promoted, c)
			}
		}
		d.emitRung(rung, len(cohort), len(promoted), len(cohort)-len(promoted))
		cohort = promoted
	}
	if d.halted {
		for _, c := range cohort {
			if c.rungs > 0 && !valued[c.first] {
				assign(c)
			}
		}
	}
	assigned := 0
	for assigned < len(batch) && valued[assigned] {
		assigned++
	}
	// Every assigned individual is one evaluation or one memo hit (a memo
	// entry or a repeat of an earlier genome); past the prefix none counts.
	d.memoHits += assigned - (d.evals - evals)
	return assigned, !d.halted
}

// rungCand is one distinct fresh genome of a batch on its way up the
// deme's rungs. The i-th candidate a rung dispatches is job i of its
// cohort.
type rungCand struct {
	key     string  // the genome's bits: its memo key
	first   int     // first batch index carrying this genome (rank tie-break)
	members []int   // every batch index carrying it
	values  []int64 // the decoded genome, from its first dispatch on
	rungs   int     // rungs committed so far
	seen    int     // sample points committed so far: the last rung's Hi
	score   float64 // objective over those points
	failed  bool    // score is a failure value, latched
}

// commit adds one rung's value to the candidate's score. A failure value
// (at least QuarantineValue) latches as the score.
func (c *rungCand) commit(v float64, hi int) {
	switch {
	case v >= QuarantineValue:
		c.score, c.failed = v, true
	case c.rungs == 0:
		c.score = v
	default:
		c.score += v
	}
	c.rungs++
	c.seen = hi
}

// fitness is the value the candidate records: its score once its last rung
// is committed or a failure value latched, and below that a deterministic
// extrapolation (score scaled by points/seen), so pruned candidates still
// rank sensibly in the memo.
func (c *rungCand) fitness(points, rungs int) float64 {
	if c.failed || c.rungs == rungs {
		return c.score
	}
	return c.score * float64(points) / float64(c.seen)
}

// record appends this generation's statistics to the deme history,
// updates the deme best-ever and emits the GenerationDone event.
func (d *deme) record() {
	best, sum, counted := math.Inf(1), 0.0, 0
	for i := range d.pop {
		if d.pop[i].value < QuarantineValue {
			sum += d.pop[i].value
			counted++
		}
		if d.pop[i].value < best {
			best = d.pop[i].value
		}
		if d.pop[i].value < d.bestValue {
			d.bestValue = d.pop[i].value
			d.best = d.spec.Decode(d.pop[i].bits)
		}
	}
	if d.best == nil && len(d.pop) > 0 {
		// Every candidate evaluated to +Inf (e.g. the context expired
		// before the first evaluation finished and the objective poisoned
		// it): still expose the first least-bad individual so callers
		// always receive a decodable best-so-far.
		bi := 0
		for i := range d.pop {
			if d.pop[i].value < d.pop[bi].value {
				bi = i
			}
		}
		d.bestValue = d.pop[bi].value
		d.best = d.spec.Decode(d.pop[bi].bits)
	}
	avg := QuarantineValue
	if counted > 0 {
		avg = sum / float64(counted)
	}
	st := GenStats{Gen: d.gen, Best: best, Avg: avg, BestEver: d.bestValue}
	// §3.3: converged when the best individual's objective differs from
	// the population average by less than ConvergeFrac of the average.
	if avg == 0 {
		st.Converged = best == 0
	} else {
		st.Converged = (avg-best)/avg < d.cfg.ConvergeFrac
	}
	d.history = append(d.history, st)
	if d.emit != nil {
		d.emit(telemetry.GenerationDone{
			Search: d.cfg.Label, Island: d.island, Gen: d.gen,
			Best: st.Best, Avg: st.Avg, BestEver: d.bestValue,
			Evaluations: d.evals, MemoHits: d.memoHits,
			Elapsed: time.Since(d.start),
		})
	}
}

// selectRSS implements remainder stochastic selection without replacement
// (Goldberg): each individual receives ⌊eᵢ⌋ deterministic copies where
// eᵢ = N·fitᵢ/Σfit, and the remaining slots are filled by Bernoulli trials
// on the fractional parts, each individual winning at most one extra copy.
// Because the GA minimises, raw objective values are transformed into
// fitness by reflecting around the generation's worst value.
func selectRSS(pop []individual, rng *rand.Rand) []individual {
	n := len(pop)
	worst := math.Inf(-1)
	for i := range pop {
		if pop[i].value > worst {
			worst = pop[i].value
		}
	}
	fits := make([]float64, n)
	var sum float64
	for i := range pop {
		// +ε keeps the worst individual selectable and avoids a zero sum
		// in uniform populations.
		fits[i] = worst - pop[i].value + 1e-9
		sum += fits[i]
	}
	// Goldberg's linear fitness scaling: cap the expected copies of the
	// best individual at scalingCap to prevent premature takeover (the
	// standard companion of remainder stochastic selection).
	const scalingCap = 2.0
	avg := sum / float64(n)
	fmax := 0.0
	for _, f := range fits {
		if f > fmax {
			fmax = f
		}
	}
	if fmax > scalingCap*avg && fmax > avg {
		a := (scalingCap - 1) * avg / (fmax - avg)
		b := avg * (fmax - scalingCap*avg) / (fmax - avg)
		sum = 0
		for i := range fits {
			fits[i] = a*fits[i] + b
			if fits[i] < 0 {
				fits[i] = 0
			}
			sum += fits[i]
		}
		if sum <= 0 { // degenerate: fall back to unscaled uniformity
			for i := range fits {
				fits[i] = 1
			}
			sum = float64(n)
		}
	}
	selected := make([]individual, 0, n)
	frac := make([]float64, n)
	for i := range pop {
		e := float64(n) * fits[i] / sum
		whole := int(e)
		frac[i] = e - float64(whole)
		for c := 0; c < whole; c++ {
			selected = append(selected, pop[i])
		}
	}
	// Fill remaining slots from fractional parts, without replacement.
	order := rng.Perm(n)
	taken := make([]bool, n)
	for len(selected) < n {
		progress := false
		for _, i := range order {
			if len(selected) >= n {
				break
			}
			if taken[i] {
				continue
			}
			if rng.Float64() < frac[i] {
				selected = append(selected, pop[i])
				taken[i] = true
				progress = true
			}
		}
		if !progress {
			// All fractions exhausted (or zero): fill uniformly.
			for len(selected) < n {
				selected = append(selected, pop[rng.IntN(n)])
			}
		}
	}
	// Shuffle so crossover pairs are random.
	rng.Shuffle(len(selected), func(i, j int) { selected[i], selected[j] = selected[j], selected[i] })
	return selected
}

// crossover recombines two genomes in place.
func crossover(kind CrossoverKind, a, b []byte, rng *rand.Rand) {
	switch kind {
	case TwoPoint:
		i := 1 + rng.IntN(len(a)-1)
		j := 1 + rng.IntN(len(a)-1)
		if i > j {
			i, j = j, i
		}
		for p := i; p < j; p++ {
			a[p], b[p] = b[p], a[p]
		}
	case Uniform:
		for p := range a {
			if rng.IntN(2) == 0 {
				a[p], b[p] = b[p], a[p]
			}
		}
	default: // SinglePoint (Figure 5)
		site := 1 + rng.IntN(len(a)-1)
		for p := site; p < len(a); p++ {
			a[p], b[p] = b[p], a[p]
		}
	}
}

func cloneBits(b []byte) []byte { return append([]byte(nil), b...) }

// seedClampWarnings documents the SeedValues injection cap: at most
// popSize-1 seed individuals are used so the initial population always
// keeps at least one random member, and excess seeds are dropped with a
// warning instead of silently. island >= 0 tags the warning with the deme
// the clamp happened in; -1 is the single-population run.
func seedClampWarnings(seeds, popSize, island int) []string {
	cap := popSize - 1
	if seeds <= cap {
		return nil
	}
	where := ""
	if island >= 0 {
		where = fmt.Sprintf(" on island %d", island+1)
	}
	return []string{fmt.Sprintf(
		"ga: %d of %d seed individuals dropped%s: at most PopSize-1 = %d seeds are injected so the initial population keeps random diversity",
		seeds-cap, seeds, where, cap)}
}
