// Package core is the paper's primary contribution: near-optimal loop
// tiling (and padding) driven by Cache Miss Equations and a genetic
// algorithm.
//
// The objective function f(T₁..Tk) of §3.1 — the number of replacement
// misses of the tiled nest — is evaluated with the fast CME solver
// (internal/cme) over a fixed simple-random sample of iteration points
// (internal/sampling). The genetic algorithm (internal/ga) searches the
// tile-size space [1,U₁]×…×[1,Uk]; the same machinery searches padding
// parameters for the kernels whose residual misses are conflicts (§4.3),
// sequentially (pad then tile, as in Table 3) or jointly in one genome
// (the paper's stated future work).
//
// Every search is bounded and interruptible: it honours its
// context.Context (cancellation and deadlines), an optional evaluation
// budget, and always returns the best candidate found so far tagged with
// a ga.StopReason instead of failing. Checkpoints written at generation
// boundaries make an interrupted search resumable bit-for-bit.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/cme"
	"repro/internal/evalcache"
	"repro/internal/faultinject"
	"repro/internal/ga"
	"repro/internal/ir"
	"repro/internal/iterspace"
	"repro/internal/padding"
	"repro/internal/sampling"
	"repro/internal/telemetry"
	"repro/internal/tiling"
)

// Options configures a search.
type Options struct {
	// Cache is the target cache geometry.
	Cache cache.Config
	// SamplePoints is the number of iteration points per objective
	// evaluation; 0 means the paper's 164 (width 0.1, 90% confidence).
	// Reported intervals are always at the paper's 90% confidence.
	SamplePoints int
	// GA holds the genetic-algorithm parameters; the zero value means the
	// paper's configuration (ga.PaperParams: population 30, pc 0.9,
	// pm 0.001, 15–25 generations). A block that sets any field is used
	// as given, never merged with the paper's values, so it must be valid
	// on its own. The run's wiring (islands, fidelity, budget, telemetry,
	// checkpoints) comes from the Options fields below.
	GA ga.Params
	// Seed makes the whole search deterministic.
	Seed uint64
	// Workers bounds the evaluation goroutines of a search, one analyzer
	// each (0 = DefaultWorkers, min(8, NumCPU)). A generation's fresh
	// candidates, or a fidelity rung's, spread one per analyzer (one pool
	// per cache level in the multi-level search); a lone evaluation
	// (finalisation, TileObjective) classifies on one analyzer. Every
	// candidate's sample range is classified on one analyzer and committed
	// in batch order, so the worker count never changes a search result or
	// its event stream — only how fast it arrives.
	Workers int
	// Fidelity enables deterministic multi-fidelity evaluation by
	// successive halving: fresh candidates are scored on a coarse prefix
	// of the fixed sample, ranked, the bottom fraction pruned at scaled
	// fitness, and survivors promoted rung by rung — only finalists pay
	// the full sample, and a promoted candidate evaluates only points it
	// has not seen. Each rung's candidates are classified concurrently,
	// like a generation's. The zero value (off) keeps every search
	// byte-identical to earlier releases. With the ladder on,
	// MaxEvaluations is charged in sample points (budget = MaxEvaluations
	// × sample size), so the cap buys the same classification work either
	// way. The ladder halves the cohort and doubles the sample prefix at
	// each rung, with a 16-point floor on the coarsest prefix. Its pruned
	// fitness stays in the GA's memo; SharedCache keys each rung's
	// statistics by the rung's sample range. The multi-level search
	// refuses it.
	Fidelity ga.Fidelity
	// Islands splits the GA population into this many concurrently
	// evolving demes, each sending its best individual to its ring
	// successor every 5 generations (0 or 1 = one population, the paper's
	// search). Each island draws from its own seed-derived PCG stream and
	// evaluates on its own analyzer pool, so any island count is
	// deterministic for a fixed Seed at any worker count.
	Islands int

	// Deadline bounds the search's wall-clock time (0 = none). It is a
	// duration from the start of the search, layered on top of whatever
	// deadline the caller's context already carries; whichever expires
	// first stops the search with ga.StopDeadline and the best-so-far
	// result. For the sequential padding+tiling search it bounds the two
	// phases together.
	Deadline time.Duration
	// MaxEvaluations caps distinct objective evaluations per GA run
	// (0 = unlimited); exhausting it stops the search with ga.StopBudget.
	MaxEvaluations int
	// Observer, when non-nil, receives the search's typed telemetry: one
	// event per lifecycle transition (search start/stop, phase changes,
	// GA generations, checkpoints, evaluation batches) plus monotonic
	// counter deltas (objective evaluations, memo hits, sampled points,
	// CME walk steps, analyzer-pool hits/misses). For a fixed seed a
	// single population's stream is byte-for-byte reproducible through
	// the JSONL sink at any worker count, apart from SearchStart.Workers;
	// island demes' evaluation batches interleave. A nil Observer is
	// free: the hot paths pay one pointer check and allocate nothing.
	Observer telemetry.Recorder
	// FailurePolicy selects how a failed candidate evaluation (panic,
	// injected fault, watchdog-stalled) is treated: FailAbort (the zero
	// value, the historical behaviour) fails the search on the first
	// failure; FailQuarantine assigns the candidate worst fitness, records
	// it on the result's Quarantined list, and keeps searching.
	FailurePolicy FailurePolicy
	// StallTimeout arms a per-evaluation watchdog (0 = none): an objective
	// evaluation that has not finished within this duration is cancelled
	// with ErrStalled and treated according to FailurePolicy, so one stuck
	// evaluation degrades the search to best-so-far instead of hanging it.
	StallTimeout time.Duration
	// SharedCache, when non-nil, is the process-wide shared evaluation
	// cache: the sampled statistics of every evaluation, keyed by content
	// (the evaluated nest's IR, padding included, cache geometry, sample
	// set, iteration space), recalled across the candidates, GA islands
	// and cache levels of one search, successive searches and service
	// requests. The sample set is drawn from Seed, so only searches with
	// the same Seed and SamplePoints share entries. Analyzers are never
	// shared: each search builds its own pool. It is
	// strictly result-transparent: for a fixed Seed a search returns
	// bit-identical results whether the cache is nil, cold, or pre-warmed
	// by earlier searches — only the work to arrive there changes. Failed
	// and cut-short evaluations are never stored, and searches running
	// under an injected fault plan bypass the cache entirely so fault
	// schedules keep firing at the same evaluation counts.
	SharedCache *evalcache.Cache
	// Checkpoint, when non-nil, receives a resumable snapshot after every
	// completed GA generation. For the sequential padding+tiling search
	// only the tiling phase is checkpointed.
	Checkpoint func(*ga.Checkpoint) error
	// ResumeFrom restarts the GA from a snapshot previously delivered to
	// Checkpoint; the resumed search reproduces the uninterrupted one
	// exactly (same nest, options and seed required).
	ResumeFrom *ga.Checkpoint
}

// ErrBadOption is the sentinel wrapped by every Options.Validate failure,
// so callers can distinguish a misconfigured search from a runtime fault
// with errors.Is(err, ErrBadOption).
var ErrBadOption = errors.New("core: bad option")

// badOption wraps ErrBadOption with the offending field and detail.
func badOption(field, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrBadOption, field, fmt.Sprintf(format, args...))
}

// Validate checks the options for a search. Zero values that withDefaults
// fills in (SamplePoints, Workers, the GA block) are valid; everything a
// caller sets explicitly must be in range. SharedCache has no invalid
// states: nil disables sharing and any constructed cache is usable. All
// searches call Validate before running, so a bad configuration fails
// fast with a typed ErrBadOption error instead of misbehaving mid-search.
func (o Options) Validate() error {
	if err := o.Cache.Validate(); err != nil {
		return badOption("Cache", "%v", err)
	}
	if o.SamplePoints < 0 {
		return badOption("SamplePoints", "%d is negative", o.SamplePoints)
	}
	if o.Workers < 0 {
		return badOption("Workers", "%d is negative", o.Workers)
	}
	if o.Deadline < 0 {
		return badOption("Deadline", "%v is negative", o.Deadline)
	}
	if o.MaxEvaluations < 0 {
		return badOption("MaxEvaluations", "%d is negative", o.MaxEvaluations)
	}
	if o.FailurePolicy != FailAbort && o.FailurePolicy != FailQuarantine {
		return badOption("FailurePolicy", "unknown policy %d", int(o.FailurePolicy))
	}
	if o.StallTimeout < 0 {
		return badOption("StallTimeout", "%v is negative", o.StallTimeout)
	}
	params := o.GA
	if params == (ga.Params{}) {
		params = ga.PaperParams(o.Seed)
	} else if err := params.Validate(); err != nil {
		return badOption("GA", "%v (leave the block zero for the paper's parameters, or start from ga.PaperParams)", err)
	}
	// The GA owns the island, budget and fidelity rules.
	run := ga.Config{Params: params, Islands: o.Islands, MaxEvaluations: o.MaxEvaluations, Fidelity: o.Fidelity}
	if err := run.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadOption, err)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.SamplePoints == 0 {
		o.SamplePoints = sampling.PaperSampleSize
	}
	if o.GA == (ga.Params{}) {
		o.GA = ga.PaperParams(o.Seed)
	}
	if o.Workers <= 0 {
		o.Workers = DefaultWorkers()
	}
	return o
}

// DefaultWorkers returns the evaluation goroutines used when
// Options.Workers is zero: min(8, NumCPU).
func DefaultWorkers() int { return min(8, runtime.NumCPU()) }

// searchContext derives the context governing one search from the
// caller's context and the Deadline option.
func (o Options) searchContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Deadline > 0 {
		return context.WithTimeout(ctx, o.Deadline)
	}
	return context.WithCancel(ctx)
}

// sharedScoped disables the shared evaluation cache for searches running
// under an injected fault plan: fault triggers fire at evaluation entry
// counts, and recalling finished results would skip those entries,
// silently rescheduling the plan. Chaos runs therefore always compute.
func (o Options) sharedScoped(ctx context.Context) Options {
	if o.SharedCache != nil && ctx != nil && faultinject.From(ctx) != nil {
		o.SharedCache = nil
	}
	return o
}

// emitStart announces a search to the observer: label, kernel, cache
// geometry and the reproducibility-relevant knobs.
func (o Options) emitStart(nest *ir.Nest, label string) time.Time {
	start := time.Now()
	if o.Observer != nil {
		o.Observer.Event(telemetry.SearchStart{
			Search: label, Kernel: nest.Name, Depth: nest.Depth(),
			CacheSize: o.Cache.Size, CacheLine: o.Cache.LineSize, CacheAssoc: o.Cache.Assoc,
			Seed: o.Seed, SamplePoints: o.SamplePoints, Workers: o.Workers,
		})
	}
	return start
}

// emitPhase announces a phase transition within a search.
func (o Options) emitPhase(label, phase string) {
	if o.Observer != nil {
		o.Observer.Event(telemetry.PhaseChange{Search: label, Phase: phase})
	}
}

// emitStop closes a search's event stream with its outcome.
func (o Options) emitStop(label string, res ga.Result, start time.Time) {
	if o.Observer != nil {
		o.Observer.Event(telemetry.SearchStop{
			Search: label, Stopped: res.Stopped.String(),
			Generations: res.Generations, Evaluations: res.Evaluations,
			BestValue: res.BestValue, Elapsed: time.Since(start),
		})
	}
}

// errSink collects the first genuine evaluation error of a search.
// Cancellation and deadline expiry are not errors — the GA engine turns
// them into a StopReason and the search still returns its best-so-far.
type errSink struct{ err error }

func (s *errSink) note(err error) {
	if err == nil || cancelled(err) {
		return
	}
	if s.err == nil {
		s.err = err
	}
}

// poison is the objective value of a candidate whose evaluation failed or
// was cut short: never competitive, so a truncated evaluation can never
// masquerade as the best-so-far.
func poison() float64 { return math.Inf(1) }

// evaluator owns the fixed sample shared by every candidate of one search
// (common random numbers: the fitness is deterministic and comparisons are
// low-variance) and a pool of reusable analyzers, one per worker, rebound
// to each candidate's iteration space instead of paying NewAnalyzer
// allocation churn on all 450+ evaluations of a GA run. Every evaluation
// classifies its whole sample range on one analyzer through classify: a
// cohort (cohort.go) gives worker w pool[w], a lone evaluation (evalRange)
// takes pool[0], and a candidate on a different nest (the padding searches
// mutate array layouts per candidate) rebuilds only its analyzer. With a
// shared cache, every evaluation first looks its statistics up under its
// content key (statsKey) and stores them once computed.
type evaluator struct {
	nest   *ir.Nest
	box    *iterspace.Box
	cfg    cache.Config
	sample *sampling.Sample
	obs    telemetry.Recorder
	// stall arms the per-evaluation watchdog (0 = disabled).
	stall time.Duration
	// island tags this evaluator's telemetry batches with a 1-based
	// island index (0 = single-population search).
	island int

	// mu guards the pool: a deme evaluates one cohort or lone evaluation
	// at a time, but TileObjective escapes to arbitrary callers. A nil
	// entry holds no analyzer yet, or was abandoned by a hung evaluation.
	mu   sync.Mutex
	pool []*cme.Analyzer

	// shared is the cross-search evaluation cache (nil = disabled). The
	// content keys of the base nest, the geometry and the sample are
	// computed once per search and carried by every fork; a level fork
	// keys its own geometry.
	shared   *evalcache.Cache
	nestKey  string
	cfgKey   string
	sampleFP string
}

func newEvaluator(nest *ir.Nest, opt Options) (*evaluator, error) {
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	box, err := tiling.Box(nest)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(opt.Seed, opt.Seed^0xda3e39cb94b95bdb))
	e := &evaluator{
		nest:   nest,
		box:    box,
		cfg:    opt.Cache,
		sample: sampling.Draw(box, opt.SamplePoints, rng),
		obs:    opt.Observer,
		stall:  opt.StallTimeout,
		pool:   make([]*cme.Analyzer, max(opt.Workers, 1)),
	}
	if opt.SharedCache != nil {
		e.shared = opt.SharedCache
		e.nestKey = evalcache.NestKey(nest)
		e.cfgKey = evalcache.ConfigKey(opt.Cache)
		e.sampleFP = e.sample.Fingerprint()
	}
	return e, nil
}

// fork returns a private view of the evaluator over cache geometry cfg:
// its own mutex and (initially empty) analyzer pool, sharing the
// immutable pieces — nest, box, sample, observer, shared cache and content
// keys — so every fork of one geometry evaluates the identical objective
// while islands (tagged island) or cache levels run concurrently. A fork
// over another geometry keys the shared cache by that geometry.
func (e *evaluator) fork(island int, cfg cache.Config) *evaluator {
	f := &evaluator{
		nest: e.nest, box: e.box, cfg: cfg, sample: e.sample,
		obs: e.obs, stall: e.stall,
		island: island, pool: make([]*cme.Analyzer, len(e.pool)),
		shared: e.shared, nestKey: e.nestKey, cfgKey: e.cfgKey, sampleFP: e.sampleFP,
	}
	if f.shared != nil && cfg != e.cfg {
		f.cfgKey = evalcache.ConfigKey(cfg)
	}
	return f
}

// bind returns pool[w] bound to (nest, space): rebound in place when it
// already analyses nest (reused=true), rebuilt otherwise. Callers hold
// e.mu.
func (e *evaluator) bind(w int, nest *ir.Nest, space iterspace.Space) (an *cme.Analyzer, reused bool, err error) {
	if an = e.pool[w]; an != nil && an.Nest() == nest {
		return an, true, an.Rebind(space)
	}
	an, err = cme.NewAnalyzer(nest, space, e.cfg)
	e.pool[w] = an
	return an, false, err
}

// evalSpace evaluates the whole sample over nest traversed in space
// order, as a lone evaluation.
func (e *evaluator) evalSpace(ctx context.Context, nest *ir.Nest, space iterspace.Space) (cachesim.Stats, error) {
	return e.evalRange(ctx, nest, space, ga.Rung{})
}

// evalRange evaluates the sample range r covers over nest traversed in
// space order as a lone evaluation on pool[0], drawing its entry faults
// from the plan ctx carries. With the shared cache enabled, statistics are
// recalled and stored by content key, so repeated requests skip the
// classification work entirely (the recalled value is the one an
// evaluation would compute, so results never change).
func (e *evaluator) evalRange(ctx context.Context, nest *ir.Nest, space iterspace.Space, r ga.Rung) (cachesim.Stats, error) {
	r = e.span(r)
	key := e.statsKey(nest, space, r)
	if key != "" {
		if st, ok := e.shared.GetStats(key); ok {
			return st, nil
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st, err := e.classify(ctx, 0, nest, space, r, e.obs, sampling.DrawEntryFaults(ctx), false)
	if err == nil && key != "" {
		e.shared.PutStats(key, st)
	}
	return st, err
}

// classify evaluates the sample range r (resolved by span) over nest
// traversed in space order on pool[w]: rebound when it already analyses
// nest, rebuilt otherwise. It reports the pool hit or miss to obs (built
// marks a pool the caller built for this evaluation: a miss), then runs
// the drawn entry faults and the classification, which reports its batch
// to obs, under the stall watchdog when armed. Every evaluation a search
// makes goes through here, and a panic becomes its error. Callers hold
// e.mu.
func (e *evaluator) classify(ctx context.Context, w int, nest *ir.Nest, space iterspace.Space, r ga.Rung,
	obs telemetry.Recorder, faults sampling.EntryFaults, built bool) (st cachesim.Stats, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: objective panic: %v", p)
		}
	}()
	an, reused, err := e.bind(w, nest, space)
	if err != nil {
		return st, err
	}
	countPool(obs, reused && !built)
	sub := e.sample.Range(r.Lo, r.Hi)
	eval := func(ctx context.Context, obs telemetry.Recorder) (cachesim.Stats, error) {
		if err := faults.Run(ctx); err != nil {
			return cachesim.Stats{}, err
		}
		return sub.EvaluateObserved(ctx, an, obs, e.island, r.Index)
	}
	if e.stall <= 0 {
		return eval(ctx, obs)
	}
	// The watched evaluation's telemetry is held and reaches obs only if
	// it finished: a truly hung evaluation leaks its goroutine, which must
	// not write into the stream later, and still holds pool[w], which is
	// dropped so the next evaluation on w rebuilds one.
	var held *recording
	var to telemetry.Recorder
	if obs != nil {
		held = &recording{}
		to = held
	}
	hung := false
	v, err := watched(ctx, e.stall, func() { hung, e.pool[w] = true, nil },
		func(wctx context.Context) (any, error) { return eval(wctx, to) })
	if held != nil && !hung {
		held.replay(obs)
	}
	st, _ = v.(cachesim.Stats)
	return st, err
}

// span resolves a batch's rung to its sample range: the zero Rung is the
// whole sample.
func (e *evaluator) span(r ga.Rung) ga.Rung {
	if r == (ga.Rung{}) {
		r.Hi = len(e.sample.Points)
	}
	return r
}

// countPool reports one evaluation's pool hit (its analyzers were
// rebound) or miss (rebuilt) to obs.
func countPool(obs telemetry.Recorder, reused bool) {
	switch {
	case obs == nil:
	case reused:
		obs.Add(telemetry.Counters{PoolHits: 1})
	default:
		obs.Add(telemetry.Counters{PoolMisses: 1})
	}
}

// statsKey returns the shared-cache key for statistics of nest over space
// and the sample range r (resolved by span), or "" when the evaluation is
// not shareable: sharing disabled, or an iteration-space shape without a
// canonical encoding. The key covers the nest's content, the geometry,
// the sample and the space; a per-candidate (padded) nest is keyed by its
// own content. The whole sample has one key whichever rung covers it; a
// partial rung is keyed by its own range.
func (e *evaluator) statsKey(nest *ir.Nest, space iterspace.Space, r ga.Rung) string {
	if e.shared == nil {
		return ""
	}
	shape, ok := spaceKey(space)
	if !ok {
		return ""
	}
	nestKey := e.nestKey
	if nest != e.nest {
		nestKey = evalcache.NestKey(nest)
	}
	key := evalcache.Scope("stats", nestKey, e.cfgKey, e.sampleFP, shape)
	if r.Lo == 0 && r.Hi == len(e.sample.Points) {
		return key
	}
	return evalcache.Scope(key, "range", strconv.Itoa(r.Lo), strconv.Itoa(r.Hi))
}

// spaceKey canonically encodes the iteration-space shapes the searches
// evaluate: a tiled space by its tile vector and tile-loop order, since
// two orders of one tile traverse differently. Unknown implementations
// are not cacheable.
func spaceKey(space iterspace.Space) (string, bool) {
	switch s := space.(type) {
	case *iterspace.Box:
		return "box", true
	case *iterspace.Tiled:
		return "tiled|" + intsKey(s.Tile) + "|" + intsKey(s.Order()), true
	default:
		return "", false
	}
}

func intsKey[T int | int64](vs []T) string {
	b := make([]byte, 0, 16*len(vs))
	for _, v := range vs {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	return string(b)
}

// tiled evaluates a tile vector over (a possibly padded copy of) the nest.
func (e *evaluator) tiled(ctx context.Context, nest *ir.Nest, tile []int64) (cachesim.Stats, error) {
	return e.evalSpace(ctx, nest, iterspace.NewTiled(e.box, tile))
}

// untiled evaluates the nest in original order.
func (e *evaluator) untiled(ctx context.Context, nest *ir.Nest) (cachesim.Stats, error) {
	return e.evalSpace(ctx, nest, e.box)
}

func (e *evaluator) estimate(st cachesim.Stats) sampling.Estimate {
	return sampling.FromStats(st, len(e.sample.Points), sampling.PaperConfidence)
}

// problem is what one GA search optimises: its genome, the heuristic
// individuals seeded into the initial population and how a genome is
// scored.
type problem struct {
	label string
	spec  ga.Spec
	// seeds are injected into the initial population.
	seeds [][]int64
	// decode maps a genome to the nest and iteration space whose sampled
	// replacement misses are its fitness. The cohorts use it for whole
	// generations and fidelity rungs alike.
	decode func(e *evaluator, v []int64) (*ir.Nest, iterspace.Space, error)
	// levels, when set, makes the fitness the penalty-weighted sum of the
	// decoded space's replacement misses over each level's cache, scored
	// by a levelBatch (the multi-level search).
	levels []Level
}

// search hands a finished GA run to the finalisation of its search.
type search struct {
	ev    *evaluator
	res   ga.Result
	guard *evalGuard
	opt   Options
	label string
}

// finalize announces the finalisation phase and returns the context its
// evaluations run under. Finalisation deliberately ignores the (possibly
// expired) search context: the best-so-far contract promises a fully
// populated result, and this tail is a bounded few evaluations.
func (s *search) finalize() context.Context {
	s.opt.emitPhase(s.label, "finalize")
	return context.Background()
}

// runSearch is the skeleton every GA search shares: validate and default
// the options, bound the context, draw the sample, run the GA over the
// problem mk builds, then hand the outcome to finish. finish runs its
// evaluations in a fixed order, which fixes the telemetry stream.
func runSearch[R any](ctx context.Context, nest *ir.Nest, opt Options,
	mk func(*evaluator) problem, finish func(*search) (R, error)) (R, error) {
	var zero R
	if err := opt.Validate(); err != nil {
		return zero, err
	}
	opt = opt.withDefaults()
	ctx, cancel := opt.searchContext(ctx)
	defer cancel()
	opt = opt.sharedScoped(ctx)
	ev, err := newEvaluator(nest, opt)
	if err != nil {
		return zero, err
	}
	p := mk(ev)
	started := opt.emitStart(nest, p.label)
	guard := opt.newGuard()
	// Each deme evaluates on its own evaluator: the search's own for a
	// single population, a fork (private analyzer pool over the shared
	// immutable sample and the shared cache) per island, so islands run
	// concurrently without serialising on one pool. The forks are
	// value-identical, so migration and the shared stats tier stay sound.
	demeEval := func(i int) *evaluator {
		if opt.Islands > 1 {
			return ev.fork(i+1, ev.cfg)
		}
		return ev
	}
	newCohort := func(e *evaluator) *cohort {
		return &cohort{ev: e, guard: guard, label: p.label, decode: p.decode}
	}
	gaCfg := ga.Config{
		Params:     withMutationFloor(opt.GA, p.spec),
		SeedValues: p.seeds,
		Islands:    opt.Islands,
		Batch: func(i int) ga.BatchEvaluator {
			if p.levels != nil {
				return newLevelBatch(demeEval(i), p.levels, newCohort)
			}
			return newCohort(demeEval(i))
		},
		Fidelity:       opt.Fidelity,
		Points:         len(ev.sample.Points),
		MaxEvaluations: opt.MaxEvaluations,
		Observer:       opt.Observer,
		Checkpoint:     opt.Checkpoint,
		ResumeFrom:     opt.ResumeFrom,
		Label:          p.label,
	}
	res, err := ga.Run(ctx, p.spec, nil, gaCfg)
	if err != nil {
		return zero, err
	}
	if err := guard.err(); err != nil {
		return zero, err
	}
	out, err := finish(&search{ev: ev, res: res, guard: guard, opt: opt, label: p.label})
	if err != nil {
		return zero, err
	}
	opt.emitStop(p.label, res, started)
	return out, nil
}

// tileSpec is the paper's tile-size genome over the evaluator's box: one
// chromosome per loop ranging over [1, extent].
func (e *evaluator) tileSpec() ga.Spec {
	uppers := make([]int64, e.box.NumCoords())
	for d := range uppers {
		uppers[d] = e.box.Extent(d)
	}
	return ga.NewTileSpec(uppers)
}

// TilingResult reports a tile-size search.
type TilingResult struct {
	// Tile is the best tile vector found.
	Tile []int64
	// Before and After are the sampled estimates for the original and
	// tiled nest (After uses the same sample: ratios are comparable).
	Before, After sampling.Estimate
	// TiledNest is the transformed loop nest (Figure 3(b) form).
	TiledNest *ir.Nest
	// Space is the tiled iteration space.
	Space *iterspace.Tiled
	// GA is the raw search trace.
	GA ga.Result
	// Stopped records why the search ended; Tile is the valid best-so-far
	// for every reason, but only ga.StopConverged means the full Figure-7
	// schedule ran.
	Stopped ga.StopReason
	// Quarantined lists the candidates set aside under
	// Options.FailQuarantine; non-empty means the run completed degraded.
	Quarantined []QuarantinedEval
}

// OptimizeTiling runs the paper's tile-size search on a rectangular nest.
// The context bounds the search: on cancellation or deadline expiry the
// best-so-far tile is returned with the matching Stopped reason.
func OptimizeTiling(ctx context.Context, nest *ir.Nest, opt Options) (*TilingResult, error) {
	return runSearch(ctx, nest, opt, func(ev *evaluator) problem {
		return problem{
			label: "tiling",
			spec:  ev.tileSpec(),
			seeds: tileSeeds(nest, ev.box, opt.Cache),
			decode: func(e *evaluator, v []int64) (*ir.Nest, iterspace.Space, error) {
				return nest, iterspace.NewTiled(e.box, tileFromGenome(e.box, v)), nil
			},
		}
	}, func(s *search) (*TilingResult, error) {
		ev := s.ev
		best := tileFromGenome(ev.box, s.res.Best)
		tiledNest, space, err := tiling.Apply(nest, best)
		if err != nil {
			return nil, err
		}
		fin := s.finalize()
		beforeStats, err := ev.untiled(fin, nest)
		if err != nil {
			return nil, err
		}
		afterStats, err := ev.tiled(fin, nest, best)
		if err != nil {
			return nil, err
		}
		return &TilingResult{
			Tile:        best,
			Before:      ev.estimate(beforeStats),
			After:       ev.estimate(afterStats),
			TiledNest:   tiledNest,
			Space:       space,
			GA:          s.res,
			Stopped:     s.res.Stopped,
			Quarantined: s.guard.quarantined(),
		}, nil
	})
}

// withMutationFloor raises the per-bit mutation probability to 1/(2L) for
// an L-bit genome when the caller's rate is lower. The paper's pm = 0.001
// yields well under one expected flip per individual on the 24–40 bit
// genomes of the larger kernels, and the population homogenises before
// finding good tiles (premature convergence); half a flip per individual
// restores steady exploration. A measured side effect, documented in
// EXPERIMENTS.md: the §3.3 homogeneity criterion then rarely fires on
// tiling-responsive kernels, so searches usually run the full 25
// generations of the Figure-7 schedule (it still fires on the flat
// conflict-bound landscapes).
func withMutationFloor(p ga.Params, spec ga.Spec) ga.Params {
	if pm := 1.0 / (2 * float64(spec.TotalBits())); p.MutationProb < pm {
		p.MutationProb = pm
	}
	return p
}

// tileSeeds returns the heuristic individuals injected into the GA's
// initial population: the square-root capacity heuristic, the untiled
// configuration (full extents) and unit tiles. On 2000-sized loops a
// uniform random population has essentially no mass on cache-fitting
// tiles; without a foothold there, selection can converge inside the flat
// "as bad as untiled" basin. Seeding known configurations is standard GA
// practice and keeps 27 of 30 individuals random.
func tileSeeds(nest *ir.Nest, box *iterspace.Box, cfg cache.Config) [][]int64 {
	k := nest.Depth()
	untiled := make([]int64, k)
	ones := make([]int64, k)
	for d := 0; d < k; d++ {
		untiled[d] = box.Extent(d)
		ones[d] = 1
	}
	return [][]int64{capacityTile(nest, box, cfg), untiled, ones}
}

// capacityTile is the square-root capacity heuristic over a prepared box:
// each tile dimension gets the k-th root of the per-array cache budget,
// clamped to the loop extents.
func capacityTile(nest *ir.Nest, box *iterspace.Box, cfg cache.Config) []int64 {
	k := nest.Depth()
	tile := make([]int64, k)
	arrays := len(nest.Arrays())
	if arrays == 0 {
		arrays = 1
	}
	elem := nest.Refs[0].Array.Elem
	budget := float64(cfg.Size) / float64(int64(arrays)*elem)
	t := int64(math.Pow(budget, 1/float64(k)))
	if t < 1 {
		t = 1
	}
	for d := 0; d < k; d++ {
		tile[d] = t
		if e := box.Extent(d); tile[d] > e {
			tile[d] = e
		}
	}
	return tile
}

// HeuristicTile returns the square-root capacity heuristic tile for the
// nest against one cache: the k-th root of the cache capacity divided
// evenly among the nest's arrays, clamped per dimension to the loop
// extents. It needs no search — the GA injects it as a seed individual,
// and the serving layer returns it as the degraded fallback when the
// circuit breaker has taken full searches out of rotation.
func HeuristicTile(nest *ir.Nest, cfg cache.Config) ([]int64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := nest.Validate(); err != nil {
		return nil, err
	}
	box, err := tiling.Box(nest)
	if err != nil {
		return nil, err
	}
	return capacityTile(nest, box, cfg), nil
}

// tileFromGenome clamps decoded genome values into valid tile sizes. The
// genome ranges over [1, extent] already; the clamp guards the Lo offset of
// boxes that do not start at 1.
func tileFromGenome(box *iterspace.Box, v []int64) []int64 {
	tile := make([]int64, len(v))
	for d := range v {
		t := v[d]
		if t < 1 {
			t = 1
		}
		if e := box.Extent(d); t > e {
			t = e
		}
		tile[d] = t
	}
	return tile
}

// OrderedTilingResult reports a joint tile-size + tile-loop-order search.
type OrderedTilingResult struct {
	Tile          []int64
	Order         []int // Order[p] = original loop at tile position p
	Before, After sampling.Estimate
	TiledNest     *ir.Nest
	GA            ga.Result
	Stopped       ga.StopReason
	// Quarantined lists candidates set aside under FailQuarantine.
	Quarantined []QuarantinedEval
}

// OptimizeTilingOrder extends the paper's search with the interchange half
// of "tiling = strip-mining + interchange": the genome carries the tile
// sizes plus a Lehmer-coded permutation of the tile loops, so the GA
// chooses which tile loop runs outermost. For some kernels (e.g. when the
// reuse-carrying loop should be the innermost tile loop) this beats every
// fixed-order tiling.
func OptimizeTilingOrder(ctx context.Context, nest *ir.Nest, opt Options) (*OrderedTilingResult, error) {
	var k int
	decode := func(box *iterspace.Box, v []int64) ([]int64, []int) {
		return tileFromGenome(box, v[:k]), lehmerToPerm(v[k:], k)
	}
	return runSearch(ctx, nest, opt, func(ev *evaluator) problem {
		k = nest.Depth()
		// Lehmer code: digit p chooses among the k-p remaining dimensions.
		chroms := ev.tileSpec().Chroms
		for p := 0; p < k-1; p++ {
			chroms = append(chroms, ga.NewChromosome(0, int64(k-p)))
		}
		var seeds [][]int64
		for _, tile := range tileSeeds(nest, ev.box, opt.Cache) {
			seed := make([]int64, len(chroms))
			copy(seed, tile)
			seeds = append(seeds, seed) // identity order
		}
		return problem{
			label: "tiling-order",
			spec:  ga.Spec{Chroms: chroms},
			seeds: seeds,
			decode: func(e *evaluator, v []int64) (*ir.Nest, iterspace.Space, error) {
				tile, order := decode(e.box, v)
				return nest, iterspace.NewPermutedTiled(e.box, tile, order), nil
			},
		}
	}, func(s *search) (*OrderedTilingResult, error) {
		ev := s.ev
		tile, order := decode(ev.box, s.res.Best)
		tiledNest, space, err := tiling.ApplyPermuted(nest, tile, order)
		if err != nil {
			return nil, err
		}
		fin := s.finalize()
		afterStats, err := ev.evalSpace(fin, nest, space)
		if err != nil {
			return nil, err
		}
		beforeStats, err := ev.untiled(fin, nest)
		if err != nil {
			return nil, err
		}
		return &OrderedTilingResult{
			Tile:        tile,
			Order:       order,
			Before:      ev.estimate(beforeStats),
			After:       ev.estimate(afterStats),
			TiledNest:   tiledNest,
			GA:          s.res,
			Stopped:     s.res.Stopped,
			Quarantined: s.guard.quarantined(),
		}, nil
	})
}

// lehmerToPerm decodes a Lehmer code (digit p in [0, k-p)) into a
// permutation of 0..k-1; out-of-range digits wrap, so every genome is
// valid.
func lehmerToPerm(code []int64, k int) []int {
	avail := make([]int, k)
	for i := range avail {
		avail[i] = i
	}
	perm := make([]int, 0, k)
	for p := 0; p < k; p++ {
		var idx int64
		if p < len(code) {
			idx = code[p] % int64(len(avail))
			if idx < 0 {
				idx += int64(len(avail))
			}
		}
		perm = append(perm, avail[idx])
		avail = append(avail[:idx], avail[idx+1:]...)
	}
	return perm
}

// TileObjective exposes the §3.1 objective function f(T₁..Tk) — the
// sampled replacement-miss count of the nest tiled with T — together with
// the iteration box bounding the search space. It lets alternative
// optimizers (simulated annealing, random search; see internal/search) be
// compared against the GA on the identical deterministic objective.
func TileObjective(nest *ir.Nest, opt Options) (func(tile []int64) float64, *iterspace.Box, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	opt = opt.withDefaults()
	ev, err := newEvaluator(nest, opt)
	if err != nil {
		return nil, nil, err
	}
	f := func(tile []int64) float64 {
		st, err := ev.tiled(context.Background(), nest, tileFromGenome(ev.box, tile))
		if err != nil {
			// One above the sample's accesses: worse than any scored tile.
			return float64(len(ev.sample.Points)*len(nest.Refs) + 1)
		}
		return float64(st.Replacement)
	}
	return f, ev.box, nil
}

// PaddingResult reports a padding search.
type PaddingResult struct {
	Plan          padding.Plan
	Before, After sampling.Estimate
	PaddedNest    *ir.Nest
	GA            ga.Result
	Stopped       ga.StopReason
	// Quarantined lists candidates set aside under FailQuarantine.
	Quarantined []QuarantinedEval
}

// OptimizePadding searches inter- and intra-array padding with the GA,
// leaving the loop order untouched (Table 3's "Padding" column).
func OptimizePadding(ctx context.Context, nest *ir.Nest, opt Options) (*PaddingResult, error) {
	var decodePlan func([]int64) padding.Plan
	return runSearch(ctx, nest, opt, func(ev *evaluator) problem {
		var spec ga.Spec
		spec, decodePlan = paddingSpec(nest, opt.Cache)
		return problem{
			label: "padding",
			spec:  spec,
			// Seed the identity plan: padding should never end worse than
			// doing nothing.
			seeds: [][]int64{make([]int64, len(spec.Chroms))},
			decode: func(e *evaluator, v []int64) (*ir.Nest, iterspace.Space, error) {
				padded, err := padding.Apply(nest, decodePlan(v))
				return padded, e.box, err
			},
		}
	}, func(s *search) (*PaddingResult, error) {
		ev := s.ev
		plan := decodePlan(s.res.Best)
		padded, err := padding.Apply(nest, plan)
		if err != nil {
			return nil, err
		}
		fin := s.finalize()
		beforeStats, err := ev.untiled(fin, nest)
		if err != nil {
			return nil, err
		}
		afterStats, err := ev.untiled(fin, padded)
		if err != nil {
			return nil, err
		}
		return &PaddingResult{
			Plan:        plan,
			Before:      ev.estimate(beforeStats),
			After:       ev.estimate(afterStats),
			PaddedNest:  padded,
			GA:          s.res,
			Stopped:     s.res.Stopped,
			Quarantined: s.guard.quarantined(),
		}, nil
	})
}

// paddingSpec builds the GA genome for padding parameters: one chromosome
// per array for the inter pad in line-size units and one for the intra pad
// in elements.
func paddingSpec(nest *ir.Nest, cfg cache.Config) (ga.Spec, func([]int64) padding.Plan) {
	arrays := nest.Arrays()
	var chroms []ga.Chromosome
	for _, a := range arrays {
		// Inter-array padding in cache lines: [0, sets-1] lines reaches
		// every relative set alignment.
		chroms = append(chroms, ga.NewChromosome(0, cfg.NumSets()))
		// Intra-array padding in elements: up to 8 lines' worth.
		chroms = append(chroms, ga.NewChromosome(0, 8*cfg.LineSize/a.Elem+1))
	}
	spec := ga.Spec{Chroms: chroms}
	decode := func(v []int64) padding.Plan {
		plan := padding.Plan{
			Inter: make([]int64, len(arrays)),
			Intra: make([]int64, len(arrays)),
		}
		for i, a := range arrays {
			plan.Inter[i] = v[2*i] * (cfg.LineSize / a.Elem) // lines → elements
			plan.Intra[i] = v[2*i+1]
		}
		return plan
	}
	return spec, decode
}

// CombinedResult reports padding followed by tiling (Table 3's
// "Padding + tiling" column) or the joint single-genome search.
type CombinedResult struct {
	Plan                       padding.Plan
	Tile                       []int64
	Original, Padded, Combined sampling.Estimate
	GA                         ga.Result
	Stopped                    ga.StopReason
	// Quarantined lists candidates set aside under FailQuarantine; for
	// the sequential search it merges both phases.
	Quarantined []QuarantinedEval
}

// OptimizePaddingThenTiling applies the two searches sequentially, exactly
// as the paper's Table 3: first find padding that minimises replacement
// misses of the untiled nest, then search tile sizes over the padded nest.
// Options.Deadline bounds the two phases together; Options.MaxEvaluations
// applies to each phase separately; checkpointing covers the tiling phase.
func OptimizePaddingThenTiling(ctx context.Context, nest *ir.Nest, opt Options) (*CombinedResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	ctx, cancel := opt.searchContext(ctx)
	defer cancel()
	opt.Deadline = 0 // already applied to ctx; phases must not re-arm it
	opt.emitPhase("padding+tiling", "padding")
	padOpt := opt
	padOpt.Checkpoint, padOpt.ResumeFrom = nil, nil
	padRes, err := OptimizePadding(ctx, nest, padOpt)
	if err != nil {
		return nil, err
	}
	// Independent GA randomness for phase two, preserving any caller
	// overrides of the GA parameters.
	opt.emitPhase("padding+tiling", "tiling")
	tileOpt := opt
	tileOpt.Seed ^= 0x5bf03635
	tileOpt.GA.Seed1 ^= 0x5bf03635
	tileOpt.GA.Seed2 ^= 0x9e3779b9
	tileRes, err := OptimizeTiling(ctx, padRes.PaddedNest, tileOpt)
	if err != nil {
		return nil, err
	}
	stopped := tileRes.Stopped
	if stopped == ga.StopConverged {
		stopped = padRes.Stopped
	}
	return &CombinedResult{
		Plan:        padRes.Plan,
		Tile:        tileRes.Tile,
		Original:    padRes.Before,
		Padded:      padRes.After,
		Combined:    tileRes.After,
		GA:          tileRes.GA,
		Stopped:     stopped,
		Quarantined: append(append([]QuarantinedEval(nil), padRes.Quarantined...), tileRes.Quarantined...),
	}, nil
}

// OptimizeJoint searches padding and tile sizes in a single genome — the
// single-step combination the paper leaves as future work (§4.3), which
// can beat the sequential composition when the best padding for the
// untiled order is not the best padding under tiling.
func OptimizeJoint(ctx context.Context, nest *ir.Nest, opt Options) (*CombinedResult, error) {
	var decodePlan func([]int64) padding.Plan
	var nPad int
	return runSearch(ctx, nest, opt, func(ev *evaluator) problem {
		var padSpec ga.Spec
		padSpec, decodePlan = paddingSpec(nest, opt.Cache)
		nPad = len(padSpec.Chroms)
		// Seed zero-padding combined with each tile heuristic.
		var seeds [][]int64
		for _, tile := range tileSeeds(nest, ev.box, opt.Cache) {
			seed := make([]int64, nPad+len(tile))
			copy(seed[nPad:], tile)
			seeds = append(seeds, seed)
		}
		return problem{
			label: "joint",
			spec:  ga.Spec{Chroms: append(padSpec.Chroms, ev.tileSpec().Chroms...)},
			seeds: seeds,
			decode: func(e *evaluator, v []int64) (*ir.Nest, iterspace.Space, error) {
				padded, err := padding.Apply(nest, decodePlan(v[:nPad]))
				return padded, iterspace.NewTiled(e.box, tileFromGenome(e.box, v[nPad:])), err
			},
		}
	}, func(s *search) (*CombinedResult, error) {
		ev := s.ev
		plan := decodePlan(s.res.Best[:nPad])
		tile := tileFromGenome(ev.box, s.res.Best[nPad:])
		padded, err := padding.Apply(nest, plan)
		if err != nil {
			return nil, err
		}
		fin := s.finalize()
		origStats, err := ev.untiled(fin, nest)
		if err != nil {
			return nil, err
		}
		padStats, err := ev.untiled(fin, padded)
		if err != nil {
			return nil, err
		}
		combStats, err := ev.tiled(fin, padded, tile)
		if err != nil {
			return nil, err
		}
		return &CombinedResult{
			Plan:        plan,
			Tile:        tile,
			Original:    ev.estimate(origStats),
			Padded:      ev.estimate(padStats),
			Combined:    ev.estimate(combStats),
			GA:          s.res,
			Stopped:     s.res.Stopped,
			Quarantined: s.guard.quarantined(),
		}, nil
	})
}

// ExhaustiveTiling enumerates every tile vector (the optimality reference
// the paper compares against) and returns the best under the same sampled
// objective. It refuses search spaces larger than limit candidates and
// returns the context's error if cancelled mid-enumeration (a truncated
// exhaustive sweep is not a reference result).
func ExhaustiveTiling(ctx context.Context, nest *ir.Nest, opt Options, limit uint64) ([]int64, cachesim.Stats, error) {
	if err := opt.Validate(); err != nil {
		return nil, cachesim.Stats{}, err
	}
	opt = opt.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.sharedScoped(ctx)
	ev, err := newEvaluator(nest, opt)
	if err != nil {
		return nil, cachesim.Stats{}, err
	}
	k := nest.Depth()
	total := uint64(1)
	for d := 0; d < k; d++ {
		total *= uint64(ev.box.Extent(d))
		if total > limit {
			return nil, cachesim.Stats{}, fmt.Errorf("core: %d tile vectors exceed limit %d", total, limit)
		}
	}
	tile := make([]int64, k)
	for d := range tile {
		tile[d] = 1
	}
	var best []int64
	var bestStats cachesim.Stats
	bestMisses := uint64(1<<63 - 1)
	for {
		if err := ctx.Err(); err != nil {
			return nil, cachesim.Stats{}, err
		}
		st, err := ev.tiled(ctx, nest, tile)
		if err != nil {
			return nil, cachesim.Stats{}, err
		}
		if st.Replacement < bestMisses {
			bestMisses = st.Replacement
			bestStats = st
			best = append([]int64(nil), tile...)
		}
		d := k - 1
		for ; d >= 0; d-- {
			if tile[d] < ev.box.Extent(d) {
				tile[d]++
				break
			}
			tile[d] = 1
		}
		if d < 0 {
			break
		}
	}
	return best, bestStats, nil
}
