// Package telemetry defines the search observation contract: a Recorder
// receives a typed event stream (search lifecycle, per-generation reports,
// per-evaluation batches, checkpoints) plus monotonic counters measuring
// where the work of a search actually goes (objective evaluations, memo
// hits, sampled points, CME walk steps, analyzer-pool reuse).
//
// The package deliberately contains only the interface and the event/
// counter types. Concrete sinks (JSONL event log, TTY progress writer,
// expvar metrics) live in the sinks subpackage, which only the public
// facade may import: internal packages depend on the Recorder interface
// alone, keeping the dependency direction clean (enforced by
// `make verify`'s depcheck).
//
// Recorders observe; they must never influence a search. Everything
// emitted is a deterministic function of the search's inputs except the
// Elapsed fields, which carry wall-clock time for humans (the JSONL sink
// omits them by default so fixed-seed event streams are byte-identical
// across runs).
//
// A nil Recorder means no telemetry; every emission site is guarded so the
// nil path does no work and allocates nothing.
package telemetry

import (
	"sync"
	"time"
)

// Kind identifies an event type; it is the "ev" discriminator of the JSONL
// encoding.
type Kind string

// The event kinds a search emits.
const (
	KindSearchStart       Kind = "search_start"
	KindPhaseChange       Kind = "phase_change"
	KindGenerationDone    Kind = "generation"
	KindEvaluationBatch   Kind = "evaluation_batch"
	KindCheckpointWritten Kind = "checkpoint"
	KindSearchStop        Kind = "search_stop"
	// KindIslandMigration marks one ring-topology elite exchange of the
	// island-model GA: island From sent its best individual to island To
	// at a migration barrier.
	KindIslandMigration Kind = "island_migration"
	// KindEvaluationRung marks one completed rung of the multi-fidelity
	// successive-halving ladder: a candidate cohort was scored on a sample
	// prefix and the bottom fraction pruned.
	KindEvaluationRung Kind = "evaluation_rung"
	// KindEvaluationQuarantined and KindCheckpointRecovered are the
	// fault-tolerance events: a candidate whose evaluation failed was
	// assigned worst fitness and set aside, or a corrupt/missing primary
	// checkpoint was replaced by its rotated previous-good copy.
	KindEvaluationQuarantined Kind = "evaluation_quarantined"
	KindCheckpointRecovered   Kind = "checkpoint_recovered"
	// The durability events: a request replayed from the crash-safe
	// journal at startup (resumed from a snapshot or re-run), and a
	// journal record quarantined during replay because it was torn,
	// failed its CRC, or tripped the journal.replay fault point.
	KindJournalRecovered Kind = "journal_recovered"
	KindJournalSkipped   Kind = "journal_skipped"
	// The server events: the admission, cache, degradation and drain
	// lifecycle of one tiling-service request (emitted by internal/server).
	KindRequestAccepted Kind = "request_accepted"
	KindRequestShed     Kind = "request_shed"
	KindRequestDone     Kind = "request_done"
	KindBreakerState    Kind = "breaker_state"
	KindServerDrained   Kind = "server_drained"
	// The shared evaluation-cache events: a lookup recalled a finished
	// result across searches/requests, a lookup found nothing, or an
	// insert evicted an entry (emitted by internal/evalcache).
	KindEvalCacheHit   Kind = "evalcache_hit"
	KindEvalCacheMiss  Kind = "evalcache_miss"
	KindEvalCacheEvict Kind = "evalcache_evict"
)

// Event is one typed occurrence in a search's life. The concrete types are
// the exhaustive set of structs below; sinks switch on them.
type Event interface {
	// Kind returns the event's wire discriminator.
	Kind() Kind
}

// SearchStart opens a search's event stream: what is being searched, over
// which kernel, against which cache, with which determinism-relevant
// parameters.
type SearchStart struct {
	// Search is the search label ("tiling", "padding", "tiling-order",
	// "multilevel", "joint").
	Search string
	// Kernel and Depth identify the loop nest.
	Kernel string
	Depth  int
	// CacheSize/CacheLine/CacheAssoc are the target cache geometry in the
	// size:line:assoc form the CLIs accept.
	CacheSize  int64
	CacheLine  int64
	CacheAssoc int
	// Seed, SamplePoints and Workers are the resolved search parameters.
	Seed         uint64
	SamplePoints int
	Workers      int
}

// Kind implements Event.
func (SearchStart) Kind() Kind { return KindSearchStart }

// PhaseChange marks a transition inside a search: the phases of a
// composite search (padding then tiling) and the finalisation tail that
// re-evaluates the winning candidate.
type PhaseChange struct {
	Search string
	Phase  string
}

// Kind implements Event.
func (PhaseChange) Kind() Kind { return KindPhaseChange }

// GenerationDone reports one completed GA generation (generation 0 is the
// initial population).
type GenerationDone struct {
	// Search is the GA phase label.
	Search string
	// Island is the 1-based island index of the deme that completed the
	// generation; 0 means a classic single-population run. The index is a
	// deterministic function of the GA seed and island count, never of
	// goroutine scheduling.
	Island int
	// Gen is the generation just recorded.
	Gen int
	// Best and Avg are the generation's best (lowest) and average
	// objective values; BestEver is the best across the whole run.
	Best, Avg, BestEver float64
	// Evaluations and MemoHits count distinct objective evaluations and
	// memo-table recalls so far in the run.
	Evaluations int
	MemoHits    int
	// Elapsed is wall-clock time since the run started. It is the one
	// non-deterministic field; deterministic sinks omit it.
	Elapsed time.Duration
}

// Kind implements Event.
func (GenerationDone) Kind() Kind { return KindGenerationDone }

// EvaluationBatch reports one objective evaluation: the fixed sample
// classified against one candidate's iteration space, with the aggregate
// outcome counts and the interference-walk cost it took to compute them.
type EvaluationBatch struct {
	// Island is the 1-based island index whose objective evaluation this
	// batch served; 0 means a single-population run. Unlike generation
	// events, batches from concurrent islands may interleave in stream
	// order (their contents stay deterministic per island).
	Island int
	// Points is the number of sampled iteration points classified.
	Points int
	// Accesses/Hits/Compulsory/Replacement are the aggregate outcome
	// counts over the batch.
	Accesses    uint64
	Hits        uint64
	Compulsory  uint64
	Replacement uint64
	// WalkSteps is the number of backward interference-walk steps the
	// batch cost, summed across evaluation workers (worker-count
	// invariant: the sum covers the same points regardless of the split).
	// A step is a position the walk passed, solved ones included
	// (cme.Analyzer.WalkStats).
	WalkSteps uint64
	// Rung is the 1-based fidelity rung this batch was evaluated for; 0
	// means a classic full-fidelity evaluation outside the ladder.
	Rung int
}

// Kind implements Event.
func (EvaluationBatch) Kind() Kind { return KindEvaluationBatch }

// EvaluationRung reports one completed rung of the multi-fidelity
// successive-halving ladder over one generation's candidate cohort.
// Emitted in deterministic order: directly by the single-population run,
// buffered and flushed in island order at the barriers by the island
// runtime.
type EvaluationRung struct {
	// Search is the GA phase label.
	Search string
	// Island is the 1-based island index; 0 means a single-population run.
	Island int
	// Rung is the 1-based rung index within the generation's ladder.
	Rung int
	// Points is the cumulative sample-prefix size candidates were scored
	// on at this rung.
	Points int
	// Candidates is the cohort size entering the rung; Promoted of them
	// advanced to the next rung and Pruned were cut at scaled fitness.
	// The final rung promotes nobody — its candidates are finished exact.
	Candidates int
	Promoted   int
	Pruned     int
}

// Kind implements Event.
func (EvaluationRung) Kind() Kind { return KindEvaluationRung }

// IslandMigration reports one edge of a ring-topology elite exchange at a
// migration barrier of the island-model GA: island From's best individual
// was copied into island To, replacing To's worst. Emitted
// serially in island order at the barrier, so the stream is deterministic
// for a fixed seed and island count.
type IslandMigration struct {
	// Search is the GA phase label.
	Search string
	// From and To are 1-based island indices (To = From's ring successor).
	From, To int
	// Gen is the recipient island's completed generation at the exchange.
	Gen int
}

// Kind implements Event.
func (IslandMigration) Kind() Kind { return KindIslandMigration }

// CheckpointWritten reports a successfully persisted generation-boundary
// snapshot.
type CheckpointWritten struct {
	Search string
	// Gen is the last completed generation the snapshot captures.
	Gen int
	// Individuals and MemoEntries size the snapshot.
	Individuals int
	MemoEntries int
}

// Kind implements Event.
func (CheckpointWritten) Kind() Kind { return KindCheckpointWritten }

// EvaluationQuarantined reports a candidate whose objective evaluation
// panicked or errored under Options.FailQuarantine: the search assigned
// it worst fitness and continued instead of aborting. A run that emits
// this event completed in degraded mode.
type EvaluationQuarantined struct {
	// Search is the GA phase label the candidate belonged to.
	Search string
	// Values is the decoded candidate (tile vector, pad vector, ...).
	Values []int64
	// Reason is the recovered panic value or error text.
	Reason string
}

// Kind implements Event.
func (EvaluationQuarantined) Kind() Kind { return KindEvaluationQuarantined }

// CheckpointRecovered reports that loading the primary checkpoint file
// failed and the rotated previous-good copy was used instead. The resumed
// search loses at most one generation of progress.
type CheckpointRecovered struct {
	// Path is the primary checkpoint path that could not be used.
	Path string
	// Cause is the error that disqualified the primary copy.
	Cause string
	// Class categorizes the cause: "missing" (no file), "corrupt" (the
	// bytes were readable but failed decoding or the integrity sum), or
	// "io" (the read itself failed). Operators alert differently on each:
	// corruption points at storage, IO errors at the environment.
	Class string
}

// Kind implements Event.
func (CheckpointRecovered) Kind() Kind { return KindCheckpointRecovered }

// JournalRecovered reports one accepted-but-unfinished request the durable
// journal replayed after a restart: the server either resumed its search
// from a persisted generation-boundary snapshot or re-ran it from scratch,
// and in both cases answered it — a crash never silently drops an accepted
// request.
type JournalRecovered struct {
	// Key is the request's idempotency key (client-supplied, or the
	// canonical cache key when the client sent none).
	Key string
	// Kernel names the requested nest.
	Kernel string
	// Resumed reports the search restarted from a persisted snapshot;
	// false means no usable snapshot existed and the search re-ran fresh.
	Resumed bool
	// Gen is the last completed generation the snapshot restored (0 when
	// the search re-ran from scratch).
	Gen int
	// Outcome is the recovered request's final outcome ("ok", "degraded",
	// "fallback", "error", "unreplayable").
	Outcome string
}

// Kind implements Event.
func (JournalRecovered) Kind() Kind { return KindJournalRecovered }

// JournalSkipped reports one journal record quarantined during startup
// replay: a truncated tail, a CRC mismatch, undecodable framing, or the
// journal.replay fault point. Recovery continues past it — a torn record
// costs at most that one record, never the boot.
type JournalSkipped struct {
	// Segment is the journal segment file the record was read from.
	Segment string
	// Line is the 1-based line number of the quarantined record.
	Line int
	// Cause is why the record was rejected.
	Cause string
}

// Kind implements Event.
func (JournalSkipped) Kind() Kind { return KindJournalSkipped }

// RequestAccepted reports a tiling-service request admitted past the
// admission gate (it may still wait in the bounded queue for a slot).
type RequestAccepted struct {
	// ID is the server-assigned monotonic request id.
	ID uint64
	// Kernel names the requested nest (catalog name or "inline").
	Kernel string
	// Mode is the requested search mode ("tile", "order").
	Mode string
}

// Kind implements Event.
func (RequestAccepted) Kind() Kind { return KindRequestAccepted }

// RequestShed reports a request rejected at admission: the queue was full
// (load shedding, HTTP 429), the queued request's context ended before a
// run slot freed up (503), the server was draining (503), or the
// server.accept fault point fired in a chaos run.
type RequestShed struct {
	// Reason is "queue_full", "slot_timeout", "draining" or "injected".
	Reason string
}

// Kind implements Event.
func (RequestShed) Kind() Kind { return KindRequestShed }

// RequestDone closes one accepted request with its outcome.
type RequestDone struct {
	// ID matches the RequestAccepted event.
	ID uint64
	// Outcome is "ok", "degraded" (search completed with quarantined
	// evaluations), "fallback" (breaker open, heuristic tile served) or
	// "error".
	Outcome string
	// CacheHit reports the response was served from the result cache.
	CacheHit bool
	// Elapsed is wall-clock service time; deterministic sinks omit it.
	Elapsed time.Duration
}

// Kind implements Event.
func (RequestDone) Kind() Kind { return KindRequestDone }

// BreakerState reports a circuit-breaker transition.
type BreakerState struct {
	// From and To are breaker states ("closed", "open", "half-open").
	From, To string
	// Reason is what drove the transition (e.g. "failure threshold",
	// "cooldown elapsed", "probe succeeded").
	Reason string
}

// Kind implements Event.
func (BreakerState) Kind() Kind { return KindBreakerState }

// ServerDrained reports a completed graceful drain: every accepted
// in-flight request was answered before the server stopped.
type ServerDrained struct {
	// InFlight is how many accepted requests were still running when the
	// drain began; all of them completed.
	InFlight int
	// Forced reports that the drain grace expired and the remaining
	// searches were cancelled to their best-so-far results.
	Forced bool
}

// Kind implements Event.
func (ServerDrained) Kind() Kind { return KindServerDrained }

// EvalCacheHit reports one shared evaluation-cache lookup that recalled
// a finished result computed by an earlier search or request.
type EvalCacheHit struct {
	// Tier is the cache tier that answered: "fitness" (GA memo entry) or
	// "stats" (finalized per-tile statistics).
	Tier string
}

// Kind implements Event.
func (EvalCacheHit) Kind() Kind { return KindEvalCacheHit }

// EvalCacheMiss reports one shared evaluation-cache lookup that found
// nothing; the caller computes and (usually) stores the result.
type EvalCacheMiss struct {
	// Tier is the cache tier consulted ("fitness" or "stats").
	Tier string
}

// Kind implements Event.
func (EvalCacheMiss) Kind() Kind { return KindEvalCacheMiss }

// EvalCacheEvict reports one size-bound eviction of the shared
// evaluation cache: an insert put its shard over the bound and the
// shard dropped its least-recently-used entry.
type EvalCacheEvict struct{}

// Kind implements Event.
func (EvalCacheEvict) Kind() Kind { return KindEvalCacheEvict }

// SearchStop closes a search's event stream with its outcome.
type SearchStop struct {
	Search string
	// Stopped is the ga.StopReason string ("converged", "deadline",
	// "budget", "cancelled").
	Stopped string
	// Generations and Evaluations are the run totals.
	Generations int
	Evaluations int
	// BestValue is the best objective value found (+Inf when every
	// candidate evaluation was cut short).
	BestValue float64
	// Elapsed is wall-clock search time; deterministic sinks omit it.
	Elapsed time.Duration
}

// Kind implements Event.
func (SearchStop) Kind() Kind { return KindSearchStop }

// Counters are the monotonic work counters of a search, delivered to
// Recorder.Add as deltas; a sink owns the accumulation. All fields are
// invariant under the evaluation worker count: parallel workers split the
// same points, so the sums match a serial run exactly.
type Counters struct {
	// Evaluations counts distinct objective evaluations (GA memo misses).
	Evaluations uint64
	// MemoHits counts objective values recalled from the GA memo table.
	MemoHits uint64
	// SampledPoints counts iteration points classified by objective
	// evaluations (evaluations × sample size).
	SampledPoints uint64
	// WalkSteps and ClassifiedAccesses are the CME point solver's
	// cumulative backward-walk steps and classified accesses
	// (cme.Analyzer.WalkStats); their ratio is the empirical per-access
	// solver cost. A step is a position the walk passed, solved ones
	// included.
	WalkSteps          uint64
	ClassifiedAccesses uint64
	// WalkCapHits counts classifications that tripped the walk cap
	// (0 in all normal operation).
	WalkCapHits uint64
	// PoolHits/PoolMisses count evaluator analyzer-pool reuses (Rebind)
	// versus rebuilds (NewAnalyzer + clones).
	PoolHits   uint64
	PoolMisses uint64
	// EvalCacheHits/EvalCacheMisses/EvalCacheEvictions count shared
	// evaluation-cache lookups that recalled a cross-search result,
	// lookups that found nothing, and entries dropped by size-bound
	// eviction.
	EvalCacheHits      uint64
	EvalCacheMisses    uint64
	EvalCacheEvictions uint64
}

// Plus returns the fieldwise sum c + d.
func (c Counters) Plus(d Counters) Counters {
	return Counters{
		Evaluations:        c.Evaluations + d.Evaluations,
		MemoHits:           c.MemoHits + d.MemoHits,
		SampledPoints:      c.SampledPoints + d.SampledPoints,
		WalkSteps:          c.WalkSteps + d.WalkSteps,
		ClassifiedAccesses: c.ClassifiedAccesses + d.ClassifiedAccesses,
		WalkCapHits:        c.WalkCapHits + d.WalkCapHits,
		PoolHits:           c.PoolHits + d.PoolHits,
		PoolMisses:         c.PoolMisses + d.PoolMisses,
		EvalCacheHits:      c.EvalCacheHits + d.EvalCacheHits,
		EvalCacheMisses:    c.EvalCacheMisses + d.EvalCacheMisses,
		EvalCacheEvictions: c.EvalCacheEvictions + d.EvalCacheEvictions,
	}
}

// IsZero reports whether every counter is zero.
func (c Counters) IsZero() bool { return c == Counters{} }

// Recorder receives a search's telemetry. Implementations must be safe
// for concurrent use (events and counters may arrive from parallel
// searches sharing one sink) and must not block: a slow recorder slows
// the search it observes.
//
// A nil Recorder disables telemetry; emission sites are nil-guarded, so
// the nil path costs nothing.
type Recorder interface {
	// Event delivers one typed event, in emission order per search.
	Event(e Event)
	// Add accumulates monotonic counter deltas.
	Add(c Counters)
}

// multi fans out to several recorders in order.
type multi []Recorder

func (m multi) Event(e Event) {
	for _, r := range m {
		r.Event(e)
	}
}

func (m multi) Add(c Counters) {
	for _, r := range m {
		r.Add(c)
	}
}

// Multi combines recorders into one that forwards every event and counter
// delta to each, in argument order. Nil entries are skipped; with zero or
// one live recorder it returns nil or that recorder directly, so the
// nil-observer fast path is preserved.
func Multi(rs ...Recorder) Recorder {
	var live multi
	for _, r := range rs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// Capture is an in-memory Recorder for tests and programmatic inspection:
// it retains every event in order and sums the counter deltas. Safe for
// concurrent use.
type Capture struct {
	mu       sync.Mutex
	events   []Event
	counters Counters
}

// Event implements Recorder.
func (c *Capture) Event(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Add implements Recorder.
func (c *Capture) Add(d Counters) {
	c.mu.Lock()
	c.counters = c.counters.Plus(d)
	c.mu.Unlock()
}

// Events returns a copy of the captured event sequence.
func (c *Capture) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Counters returns the accumulated counter totals.
func (c *Capture) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}
