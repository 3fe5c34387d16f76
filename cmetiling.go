// Package cmetiling reproduces "Near-Optimal Loop Tiling by means of Cache
// Miss Equations and Genetic Algorithms" (Abella, González, Llosa, Vera —
// ICPP Workshops 2002): an automatic tile-size (and padding) selector for
// perfectly nested affine loops, driven by an exact analytical cache model
// (Cache Miss Equations) solved by iteration-space traversal with simple
// random sampling, and searched with a genetic algorithm.
//
// # Quick start
//
//	k, _ := cmetiling.GetKernel("MM")            // Figure-1 matrix multiply
//	nest, _ := k.Instance(500)                   // N=500 instance
//	res, _ := cmetiling.OptimizeTiling(context.Background(), nest, cmetiling.Options{
//		Cache: cmetiling.DM8K,                   // 8KB direct-mapped, 32B lines
//		Seed:  1,
//	})
//	fmt.Printf("tile %v: %.1f%% -> %.1f%% replacement misses\n",
//		res.Tile, 100*res.Before.ReplacementRatio, 100*res.After.ReplacementRatio)
//
// Every search takes a context first: cancel it or give it a deadline and
// the search stops at the next candidate boundary, returning the best
// result found so far (never an error).
//
// # Multi-fidelity evaluation
//
// Options.Fidelity (a Fidelity value; Rungs > 1 enables it) evaluates
// each generation by deterministic successive halving: candidates are
// first ranked on a coarse prefix of the fixed evaluation sample, the
// bottom fraction is pruned at scaled fitness, and only the survivors
// pay the full sample — a promoted candidate keeps its partial result
// and classifies only unseen points. The same evaluation budget then
// searches several times more candidates. The ladder is bit-reproducible
// for a fixed seed at any worker and island count, and the zero value
// (off) keeps every search byte-identical to earlier releases.
//
// # Sharing evaluation work across searches
//
// Options.SharedCache attaches a shared evaluation cache (NewEvalCache)
// to a search. The cache memoizes the sampled statistics of each
// evaluated tile or padded nest, keyed by content, across the candidates,
// GA islands and cache levels of one search, successive searches and
// concurrent callers — strictly result-transparently: for a fixed
// seed a search returns bit-identical results whether the cache is
// absent, cold, or pre-warmed. Its keys include the sample the seed
// draws, so searches over the same nest and cache geometry with the same
// seed and sample size share work: a repeat, a retry with a larger
// budget, or a tile-loop-order search after a tiling search. They get
// faster, never different.
//
// Custom loop nests are built from the ir package's types (re-exported
// here): arrays with explicit layout, affine references, rectangular
// loops. See examples/ for complete programs.
//
// # Observing a search
//
// Options.Observer attaches a telemetry Recorder to a search: a typed
// event stream (search start/stop, phase changes, GA generations,
// checkpoints, evaluation batches) plus monotonic counters (objective
// evaluations, memo hits, sampled points, CME walk steps, analyzer-pool
// hits/misses). Three sinks ship with the package — NewJSONLSink (a
// machine-readable event log, byte-reproducible for a fixed seed at any
// worker count), NewTTYSink (human-readable progress lines) and
// NewExpvarSink (aggregate metrics under /debug/vars) — and
// MultiRecorder fans one search out to several sinks. A nil Observer
// costs nothing.
//
// # Architecture
//
//   - internal/ir, internal/expr: the affine loop-nest representation.
//   - internal/iterspace: rectangular and tiled iteration spaces (§2.4's
//     2ⁿ convex regions), traversal and uniform sampling.
//   - internal/reuse: Wolf–Lam reuse vectors.
//   - internal/cme: Cache Miss Equations — the exact per-access point
//     solver (§2.2–2.3) and the symbolic equation generator (§2.1).
//   - internal/sampling: the §2.3 statistical estimator (164 points for a
//     width-0.1, 90%-confidence interval).
//   - internal/ga: the §3.2–3.3 genetic algorithm.
//   - internal/tiling, internal/padding: the program transformations.
//   - internal/core: the searches gluing it all together.
//   - internal/cachesim: the trace-driven simulator used as ground truth.
//   - internal/kernels: all Table-1 benchmark kernels.
//   - internal/experiments: regeneration of every table and figure.
package cmetiling

import (
	"context"
	"io"
	"os"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/cliutil"
	"repro/internal/cme"
	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/ga"
	"repro/internal/ir"
	"repro/internal/iterspace"
	"repro/internal/kernels"
	"repro/internal/parser"
	"repro/internal/sampling"
	"repro/internal/telemetry"
	"repro/internal/telemetry/sinks"
	"repro/internal/tiling"
)

// Cache geometry.
type (
	// CacheConfig describes a cache: size, line size, associativity.
	CacheConfig = cache.Config
)

// The paper's two evaluated configurations.
var (
	// DM8K is an 8KB direct-mapped cache with 32-byte lines.
	DM8K = cache.DM8K
	// DM32K is a 32KB direct-mapped cache with 32-byte lines.
	DM32K = cache.DM32K
)

// Loop-nest construction.
type (
	// Nest is a perfectly nested affine loop nest.
	Nest = ir.Nest
	// Loop is one loop of a nest.
	Loop = ir.Loop
	// Array is a program array with explicit memory layout.
	Array = ir.Array
	// Ref is an affine array reference.
	Ref = ir.Ref
	// Affine is an affine expression over loop variables.
	Affine = expr.Affine
)

// Expression helpers for building references and bounds.
var (
	// Const builds a constant expression.
	Const = expr.Const
	// Var builds the expression v_i for loop depth i (0 = outermost).
	Var = expr.Var
	// VarPlus builds v_i + c.
	VarPlus = expr.VarPlus
	// BoundOf wraps an expression as a loop upper bound.
	BoundOf = ir.BoundOf
	// LayoutArrays assigns consecutive aligned base addresses.
	LayoutArrays = ir.LayoutArrays
)

// Searches (the paper's contribution).
type (
	// Options configures a search; the zero value plus a Cache gives the
	// paper's parameters (164 sample points, population 30, pc 0.9,
	// pm 0.001, 15–25 generations).
	Options = core.Options
	// TilingResult reports a tile search.
	TilingResult = core.TilingResult
	// PaddingResult reports a padding search.
	PaddingResult = core.PaddingResult
	// CombinedResult reports padding+tiling (sequential or joint).
	CombinedResult = core.CombinedResult
	// OrderedTilingResult reports the tile-size + loop-order search.
	OrderedTilingResult = core.OrderedTilingResult
	// Level couples a cache level with its miss penalty.
	Level = core.Level
	// MultiLevelResult reports a cache-hierarchy tile search.
	MultiLevelResult = core.MultiLevelResult
	// Estimate is a sampled miss-ratio estimate with confidence interval.
	Estimate = sampling.Estimate
	// Stats are exact or sampled access-outcome counts.
	Stats = cachesim.Stats
	// Kernel is a Table-1 benchmark kernel.
	Kernel = kernels.Kernel
)

// Search runtime: every search is cancellable, deadline- and
// budget-bounded, and degrades gracefully to its best-so-far result.
type (
	// StopReason explains why a search ended (StopConverged is the
	// paper's Figure-7 schedule; the others mark bounded runs whose
	// results are still valid best-so-far candidates).
	StopReason = ga.StopReason
	// Checkpoint is a resumable generation-boundary snapshot of a
	// search, written through Options.Checkpoint and restored through
	// Options.ResumeFrom.
	Checkpoint = ga.Checkpoint
	// Fidelity configures deterministic multi-fidelity evaluation by
	// successive halving (Options.Fidelity; see "Multi-fidelity
	// evaluation" in the package docs). The zero value disables it.
	Fidelity = ga.Fidelity
)

// The stop reasons a bounded search can report.
const (
	StopConverged = ga.StopConverged
	StopDeadline  = ga.StopDeadline
	StopBudget    = ga.StopBudget
	StopCancelled = ga.StopCancelled
)

// ErrBadOption is the sentinel every Options.Validate failure wraps;
// match it with errors.Is to distinguish a misconfigured search from a
// runtime fault.
var ErrBadOption = core.ErrBadOption

// Shared evaluation cache: cross-search, cross-island memoization of
// evaluation work, attached through Options.SharedCache (see "Sharing
// evaluation work across searches" in the package docs).
type (
	// EvalCache is the sharded, bounded, concurrency-safe evaluation
	// cache; one instance may back any number of concurrent searches.
	EvalCache = evalcache.Cache
	// EvalCacheConfig sizes an EvalCache and attaches its telemetry
	// observer.
	EvalCacheConfig = evalcache.Config
	// EvalCacheMetrics is an EvalCache's hit/miss/eviction/size snapshot.
	EvalCacheMetrics = evalcache.Metrics
)

// NewEvalCache builds a shared evaluation cache; the zero EvalCacheConfig
// gives the defaults (32768 entries, 16 shards, no observer).
var NewEvalCache = evalcache.New

// Telemetry: the typed observation surface of a search, attached through
// Options.Observer (see "Observing a search" in the package docs).
type (
	// Recorder receives a search's typed events and counter deltas. The
	// shipped sinks implement it; so can any caller type.
	Recorder = telemetry.Recorder
	// Event is one typed occurrence in a search's lifecycle; switch on
	// the concrete ...Event types or dispatch on Event.Kind().
	Event = telemetry.Event
	// EventKind discriminates event types ("search_start", "generation",
	// ...).
	EventKind = telemetry.Kind
	// Counters are the monotonic search counters, delivered as deltas to
	// Recorder.Add.
	Counters = telemetry.Counters

	// SearchStartEvent opens a search's event stream.
	SearchStartEvent = telemetry.SearchStart
	// PhaseChangeEvent marks a phase transition (e.g. the padding →
	// tiling hand-off, or finalisation).
	PhaseChangeEvent = telemetry.PhaseChange
	// GenerationDoneEvent reports one completed GA generation.
	GenerationDoneEvent = telemetry.GenerationDone
	// EvaluationBatchEvent reports one objective evaluation over the
	// shared sample (or, under multi-fidelity evaluation, one sample
	// prefix range, tagged with its rung).
	EvaluationBatchEvent = telemetry.EvaluationBatch
	// EvaluationRungEvent reports one completed successive-halving rung
	// of a multi-fidelity search: sample prefix size, cohort size and
	// how many candidates were promoted or pruned.
	EvaluationRungEvent = telemetry.EvaluationRung
	// IslandMigrationEvent reports one ring elite exchange of a
	// multi-island search (Options.Islands > 1).
	IslandMigrationEvent = telemetry.IslandMigration
	// CheckpointWrittenEvent reports a persisted search snapshot.
	CheckpointWrittenEvent = telemetry.CheckpointWritten
	// EvaluationQuarantinedEvent reports a candidate set aside under
	// FailQuarantine; a run that emits it completed degraded.
	EvaluationQuarantinedEvent = telemetry.EvaluationQuarantined
	// CheckpointRecoveredEvent reports a resume that fell back to the
	// rotated previous-good snapshot.
	CheckpointRecoveredEvent = telemetry.CheckpointRecovered
	// JournalRecoveredEvent reports one journaled request replayed after
	// a tilingd restart (resumed from a checkpoint or re-run fresh).
	JournalRecoveredEvent = telemetry.JournalRecovered
	// JournalSkippedEvent reports one torn or corrupt journal record
	// quarantined during startup replay.
	JournalSkippedEvent = telemetry.JournalSkipped
	// EvalCacheHitEvent, EvalCacheMissEvent and EvalCacheEvictEvent
	// report shared evaluation-cache operations (Options.SharedCache);
	// the matching monotonic totals ride Counters.
	EvalCacheHitEvent   = telemetry.EvalCacheHit
	EvalCacheMissEvent  = telemetry.EvalCacheMiss
	EvalCacheEvictEvent = telemetry.EvalCacheEvict
	// SearchStopEvent closes a search's event stream with its outcome.
	SearchStopEvent = telemetry.SearchStop

	// JSONLSink logs every event as one JSON line (deterministic for a
	// fixed seed at any worker count unless Timestamps is set).
	JSONLSink = sinks.JSONL
	// TTYSink prints human-readable progress lines.
	TTYSink = sinks.TTY
	// ExpvarSink aggregates counters into an expvar map.
	ExpvarSink = sinks.Expvar
)

// Sink constructors and recorder composition.
var (
	// NewJSONLSink returns a JSONL event log writing to w; call Close to
	// flush the final counters line.
	NewJSONLSink = sinks.NewJSONL
	// NewTTYSink returns a progress writer for w.
	NewTTYSink = sinks.NewTTY
	// NewExpvarSink returns an expvar aggregate registered under name.
	NewExpvarSink = sinks.NewExpvar
	// MultiRecorder fans events and counters out to several recorders
	// (nil entries are skipped; all-nil collapses to nil).
	MultiRecorder = telemetry.Multi
)

// WriteCheckpoint and ReadCheckpoint (de)serialise search snapshots as
// JSON for persistence across processes.
var (
	WriteCheckpoint = ga.WriteCheckpoint
	ReadCheckpoint  = ga.ReadCheckpoint
)

// Fault tolerance: how a search behaves when an evaluation breaks, an
// evaluation hangs, or checkpoint/log I/O fails — and the deterministic
// fault-injection harness the chaos suite drives those paths with.
type (
	// FailurePolicy selects what a search does when one objective
	// evaluation fails (FailAbort, the zero value, preserves the
	// historical fail-the-search contract; FailQuarantine sets the
	// candidate aside and completes degraded).
	FailurePolicy = core.FailurePolicy
	// QuarantinedEval records one candidate set aside under
	// FailQuarantine, with the phase it failed in and why.
	QuarantinedEval = core.QuarantinedEval

	// FaultPlan is a deterministic, seeded schedule of injected faults;
	// thread it with WithFaults into the context a search runs under, and
	// pass the same context to SaveCheckpointFile to arm checkpoint
	// persistence.
	FaultPlan = faultinject.Plan
	// FaultRule arms one fault point with its trigger (After/Times/Prob)
	// and action (error, panic, or stall).
	FaultRule = faultinject.Rule
	// Fault is the error an armed fault point returns; detect it with
	// IsFault (or errors.As).
	Fault = faultinject.Fault
)

// The two failure policies.
const (
	FailAbort      = core.FailAbort
	FailQuarantine = core.FailQuarantine
)

// The fault points the pipeline exposes (the spec keys ParseFaultSpec
// accepts).
const (
	FaultEvalPanic       = faultinject.EvalPanic
	FaultEvalStall       = faultinject.EvalStall
	FaultCheckpointWrite = faultinject.CheckpointWrite
	FaultSinkWrite       = faultinject.SinkWrite
	FaultJournalWrite    = faultinject.JournalWrite
	FaultJournalReplay   = faultinject.JournalReplay
)

// ErrStalled marks an evaluation the Options.StallTimeout watchdog gave
// up on; under FailQuarantine the stalled candidate is quarantined and
// the search continues.
var ErrStalled = core.ErrStalled

// Fault-tolerance helpers.
var (
	// ParseFailurePolicy parses "abort" or "quarantine" ("" means abort)
	// — the -failure-policy CLI flag format.
	ParseFailurePolicy = core.ParseFailurePolicy
	// NewFaultPlan builds a fault plan from explicit rules.
	NewFaultPlan = faultinject.New
	// ParseFaultSpec parses the compact CLI spec, e.g.
	// "seed=1;eval.panic:after=3,times=1;sink.write:prob=0.01".
	ParseFaultSpec = faultinject.Parse
	// WithFaults threads a fault plan into the context a search runs
	// under; searches with no plan in context never see a fault.
	WithFaults = faultinject.With
	// FaultsFrom retrieves the plan WithFaults stored (nil when absent).
	FaultsFrom = faultinject.From
	// IsFault reports whether err (or anything it wraps) is an injected
	// fault rather than an organic failure.
	IsFault = faultinject.Is
	// FaultWriter wraps an io.Writer so the plan's sink.write point can
	// fail its writes; used to exercise telemetry-log I/O failures.
	FaultWriter = faultinject.Writer
)

// Durable checkpoint files: atomic write with fsync and previous-good
// rotation, and the matching fallback-aware loader.
var (
	// SaveCheckpointFile durably persists a checkpoint: temp file +
	// fsync + rotate the old snapshot to PrevCheckpointFile(path) +
	// rename, with transient-failure retries. Its context carries only
	// the fault plan (WithFaults) whose checkpoint.write point each
	// attempt fires; a cancelled context still writes.
	SaveCheckpointFile = cliutil.SaveCheckpoint
	// LoadCheckpointFile reads path, falling back to the rotated
	// previous-good copy when the primary is missing or corrupt; the
	// fallback is reported on obs as a CheckpointRecoveredEvent and via
	// the recovered return.
	LoadCheckpointFile = cliutil.LoadCheckpoint
	// PrevCheckpointFile names the rotated previous-good snapshot for a
	// checkpoint path.
	PrevCheckpointFile = cliutil.PrevCheckpoint
)

// OptimizeTiling searches tile sizes with the CME+GA method of §3. The
// context bounds the search: on cancellation or deadline expiry it stops
// at the next candidate boundary and returns the best tile found so far,
// with the reason in TilingResult.Stopped — not an error.
func OptimizeTiling(ctx context.Context, nest *Nest, opt Options) (*TilingResult, error) {
	return core.OptimizeTiling(ctx, nest, opt)
}

// OptimizeTilingOrder searches tile sizes together with the interchange
// order of the tile loops — the full "strip-mining + interchange" space
// (an extension of the paper's fixed-order search).
func OptimizeTilingOrder(ctx context.Context, nest *Nest, opt Options) (*OrderedTilingResult, error) {
	return core.OptimizeTilingOrder(ctx, nest, opt)
}

// OptimizeTilingMultiLevel searches tile sizes against a whole cache
// hierarchy, minimising the penalty-weighted replacement-miss cost (an
// extension; the paper evaluates one level at a time).
func OptimizeTilingMultiLevel(ctx context.Context, nest *Nest, levels []Level, opt Options) (*MultiLevelResult, error) {
	return core.OptimizeTilingMultiLevel(ctx, nest, levels, opt)
}

// OptimizePadding searches inter-/intra-array padding (§4.3, [28]).
func OptimizePadding(ctx context.Context, nest *Nest, opt Options) (*PaddingResult, error) {
	return core.OptimizePadding(ctx, nest, opt)
}

// OptimizePaddingThenTiling runs the two searches sequentially (Table 3);
// the context covers both phases.
func OptimizePaddingThenTiling(ctx context.Context, nest *Nest, opt Options) (*CombinedResult, error) {
	return core.OptimizePaddingThenTiling(ctx, nest, opt)
}

// OptimizeJoint searches padding and tiling in a single genome (the
// paper's stated future work).
func OptimizeJoint(ctx context.Context, nest *Nest, opt Options) (*CombinedResult, error) {
	return core.OptimizeJoint(ctx, nest, opt)
}

// Simulate runs the nest's full reference trace through a trace-driven
// LRU simulator and returns exact miss statistics — the ground truth the
// analytical model is validated against.
func Simulate(nest *Nest, cfg CacheConfig) Stats {
	return cachesim.SimulateNest(nest, cfg)
}

// AnalyzeExact classifies every access of the nest with the CME point
// solver (exhaustive; small nests only) and returns the aggregate counts.
// It equals Simulate access-for-access.
func AnalyzeExact(nest *Nest, cfg CacheConfig) (Stats, error) {
	box, err := tiling.Box(nest)
	if err != nil {
		return Stats{}, err
	}
	an, err := cme.NewAnalyzer(nest, box, cfg)
	if err != nil {
		return Stats{}, err
	}
	return an.ExhaustiveStats(), nil
}

// ApplyTiling tiles the nest with the given tile vector, returning the
// transformed nest (Figure 3(b) form).
func ApplyTiling(nest *Nest, tile []int64) (*Nest, error) {
	tiled, _, err := tiling.Apply(nest, tile)
	return tiled, err
}

// ParseKernel reads a textual loop-nest description (the format documented
// in internal/parser: array declarations followed by one perfect do-nest
// of read/write references) and returns the nest.
func ParseKernel(r io.Reader, name string) (*Nest, error) {
	prog, err := parser.Parse(r, name)
	if err != nil {
		return nil, err
	}
	return prog.Nest, nil
}

// ParseKernelFile is ParseKernel over a file path.
func ParseKernelFile(path string) (*Nest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseKernel(f, path)
}

// Kernels returns the Table-1 benchmark catalog.
func Kernels() []Kernel { return kernels.All() }

// GetKernel looks a benchmark kernel up by its Table-1 name.
func GetKernel(name string) (Kernel, bool) { return kernels.Get(name) }

// PaperSampleSize is the §2.3 sample size (164 iteration points for a
// width-0.1 interval at 90% confidence).
const PaperSampleSize = sampling.PaperSampleSize

// SetProfileLabels toggles pprof labels (kernel, phase, fidelity rung) on
// the parallel evaluation worker goroutines, so CPU profiles of a search
// break down by what was being evaluated. Off by default: labelling costs
// a context allocation per evaluation batch, which the zero-cost
// nil-observer contract keeps off the hot path unless asked for.
var SetProfileLabels = sampling.SetProfileLabels

// assert the facade types stay usable as iterspace consumers.
var _ iterspace.Space = (*iterspace.Box)(nil)
