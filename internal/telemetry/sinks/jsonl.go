// Package sinks provides the concrete telemetry recorders: a JSONL event
// log, a human-readable TTY progress writer, and an expvar-registered
// aggregate metrics map. Only the public facade (and the command-line
// tools through it) may import this package; internal packages depend on
// the telemetry.Recorder interface alone — `make verify`'s depcheck
// enforces the direction.
package sinks

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/retry"
	"repro/internal/telemetry"
)

// JSONL writes one JSON object per line: every event as it arrives (keyed
// by its "ev" kind) and, on Close, a final "counters" line with the
// accumulated monotonic counters.
//
// The encoding is deterministic by default: wall-clock Elapsed fields are
// omitted unless Timestamps is set, so a fixed-seed search produces a
// byte-identical stream on every run (the golden-stream tests rely on
// this). Safe for concurrent use.
type JSONL struct {
	// Timestamps includes the elapsed_ms field on generation and
	// search-stop lines. Off by default: wall-clock time is the one
	// non-deterministic part of the stream.
	Timestamps bool
	// Retry bounds the per-line write retries absorbing transient I/O
	// failures (a momentarily full pipe, an injected fault). The zero
	// value is the default policy: three tries with short capped backoff.
	Retry retry.Policy

	mu       sync.Mutex
	w        io.Writer
	counters telemetry.Counters
	err      error
}

// NewJSONL returns a JSONL sink writing to w. The caller owns w; Close
// flushes the final counters line but does not close w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// jfloat is a float64 that encodes non-finite values (a poisoned +Inf
// objective) as null instead of failing json.Marshal.
type jfloat float64

// MarshalJSON implements json.Marshaler.
func (f jfloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// Event implements telemetry.Recorder.
func (j *JSONL) Event(e telemetry.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writeLine(j.record(e))
}

// record maps an event onto its wire struct. Field order is fixed by the
// struct definitions, which is what makes the stream reproducible.
func (j *JSONL) record(e telemetry.Event) any {
	switch ev := e.(type) {
	case telemetry.SearchStart:
		return struct {
			Ev      string `json:"ev"`
			Search  string `json:"search"`
			Kernel  string `json:"kernel"`
			Depth   int    `json:"depth"`
			Cache   string `json:"cache"`
			Seed    uint64 `json:"seed"`
			Points  int    `json:"points"`
			Workers int    `json:"workers"`
		}{string(ev.Kind()), ev.Search, ev.Kernel, ev.Depth,
			fmt.Sprintf("%d:%d:%d", ev.CacheSize, ev.CacheLine, ev.CacheAssoc),
			ev.Seed, ev.SamplePoints, ev.Workers}
	case telemetry.PhaseChange:
		return struct {
			Ev     string `json:"ev"`
			Search string `json:"search"`
			Phase  string `json:"phase"`
		}{string(ev.Kind()), ev.Search, ev.Phase}
	case telemetry.GenerationDone:
		// The island field is omitted when zero, so single-population
		// streams are byte-identical to those of earlier releases.
		rec := struct {
			Ev        string  `json:"ev"`
			Search    string  `json:"search"`
			Island    int     `json:"island,omitempty"`
			Gen       int     `json:"gen"`
			Best      jfloat  `json:"best"`
			Avg       jfloat  `json:"avg"`
			BestEver  jfloat  `json:"best_ever"`
			Evals     int     `json:"evals"`
			MemoHits  int     `json:"memo_hits"`
			ElapsedMS *jfloat `json:"elapsed_ms,omitempty"`
		}{string(ev.Kind()), ev.Search, ev.Island, ev.Gen, jfloat(ev.Best), jfloat(ev.Avg),
			jfloat(ev.BestEver), ev.Evaluations, ev.MemoHits, nil}
		if j.Timestamps {
			ms := jfloat(float64(ev.Elapsed.Microseconds()) / 1e3)
			rec.ElapsedMS = &ms
		}
		return rec
	case telemetry.EvaluationBatch:
		// The island and rung fields are omitted when zero, so classic
		// single-population full-fidelity streams keep their exact
		// historical encoding.
		return struct {
			Ev          string `json:"ev"`
			Island      int    `json:"island,omitempty"`
			Points      int    `json:"points"`
			Accesses    uint64 `json:"accesses"`
			Hits        uint64 `json:"hits"`
			Compulsory  uint64 `json:"compulsory"`
			Replacement uint64 `json:"replacement"`
			WalkSteps   uint64 `json:"walk_steps"`
			Rung        int    `json:"rung,omitempty"`
		}{string(ev.Kind()), ev.Island, ev.Points, ev.Accesses, ev.Hits, ev.Compulsory,
			ev.Replacement, ev.WalkSteps, ev.Rung}
	case telemetry.EvaluationRung:
		return struct {
			Ev         string `json:"ev"`
			Search     string `json:"search"`
			Island     int    `json:"island,omitempty"`
			Rung       int    `json:"rung"`
			Points     int    `json:"points"`
			Candidates int    `json:"candidates"`
			Promoted   int    `json:"promoted"`
			Pruned     int    `json:"pruned"`
		}{string(ev.Kind()), ev.Search, ev.Island, ev.Rung, ev.Points,
			ev.Candidates, ev.Promoted, ev.Pruned}
	case telemetry.IslandMigration:
		return struct {
			Ev     string `json:"ev"`
			Search string `json:"search"`
			From   int    `json:"from"`
			To     int    `json:"to"`
			Gen    int    `json:"gen"`
		}{string(ev.Kind()), ev.Search, ev.From, ev.To, ev.Gen}
	case telemetry.CheckpointWritten:
		return struct {
			Ev          string `json:"ev"`
			Search      string `json:"search"`
			Gen         int    `json:"gen"`
			Individuals int    `json:"individuals"`
			MemoEntries int    `json:"memo_entries"`
		}{string(ev.Kind()), ev.Search, ev.Gen, ev.Individuals, ev.MemoEntries}
	case telemetry.EvaluationQuarantined:
		return struct {
			Ev     string  `json:"ev"`
			Search string  `json:"search"`
			Values []int64 `json:"values"`
			Reason string  `json:"reason"`
		}{string(ev.Kind()), ev.Search, ev.Values, ev.Reason}
	case telemetry.CheckpointRecovered:
		return struct {
			Ev    string `json:"ev"`
			Path  string `json:"path"`
			Cause string `json:"cause"`
			Class string `json:"class,omitempty"`
		}{string(ev.Kind()), ev.Path, ev.Cause, ev.Class}
	case telemetry.JournalRecovered:
		return struct {
			Ev      string `json:"ev"`
			Key     string `json:"key"`
			Kernel  string `json:"kernel"`
			Resumed bool   `json:"resumed"`
			Gen     int    `json:"gen"`
			Outcome string `json:"outcome"`
		}{string(ev.Kind()), ev.Key, ev.Kernel, ev.Resumed, ev.Gen, ev.Outcome}
	case telemetry.JournalSkipped:
		return struct {
			Ev      string `json:"ev"`
			Segment string `json:"segment"`
			Line    int    `json:"line"`
			Cause   string `json:"cause"`
		}{string(ev.Kind()), ev.Segment, ev.Line, ev.Cause}
	case telemetry.EvalCacheHit:
		return struct {
			Ev   string `json:"ev"`
			Tier string `json:"tier"`
		}{string(ev.Kind()), ev.Tier}
	case telemetry.EvalCacheMiss:
		return struct {
			Ev   string `json:"ev"`
			Tier string `json:"tier"`
		}{string(ev.Kind()), ev.Tier}
	case telemetry.EvalCacheEvict:
		return struct {
			Ev string `json:"ev"`
		}{string(ev.Kind())}
	case telemetry.SearchStop:
		rec := struct {
			Ev        string  `json:"ev"`
			Search    string  `json:"search"`
			Stopped   string  `json:"stopped"`
			Gens      int     `json:"gens"`
			Evals     int     `json:"evals"`
			BestValue jfloat  `json:"best_value"`
			ElapsedMS *jfloat `json:"elapsed_ms,omitempty"`
		}{string(ev.Kind()), ev.Search, ev.Stopped, ev.Generations,
			ev.Evaluations, jfloat(ev.BestValue), nil}
		if j.Timestamps {
			ms := jfloat(float64(ev.Elapsed.Microseconds()) / 1e3)
			rec.ElapsedMS = &ms
		}
		return rec
	default:
		return struct {
			Ev string `json:"ev"`
		}{string(e.Kind())}
	}
}

// Add implements telemetry.Recorder; deltas accumulate into the counters
// line Close writes.
func (j *JSONL) Add(c telemetry.Counters) {
	j.mu.Lock()
	j.counters = j.counters.Plus(c)
	j.mu.Unlock()
}

// writeLine marshals rec and appends it as one line; callers hold j.mu.
// Transient write failures are retried with capped backoff (each attempt
// rewrites the whole line, so a torn line is never followed by a valid
// one on the same stream without a retry marker in between); the first
// persistent error is retained and reported by Close, and later lines are
// dropped.
func (j *JSONL) writeLine(rec any) {
	if j.err != nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		j.err = err
		return
	}
	line := append(b, '\n')
	if err := j.Retry.Do(nil, func() error {
		_, werr := j.w.Write(line)
		return werr
	}); err != nil {
		j.err = err
	}
}

// Close appends the final counters line and returns the first error the
// sink encountered. It does not close the underlying writer.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	c := j.counters
	j.writeLine(struct {
		Ev          string `json:"ev"`
		Evaluations uint64 `json:"evaluations"`
		MemoHits    uint64 `json:"memo_hits"`
		Sampled     uint64 `json:"sampled_points"`
		WalkSteps   uint64 `json:"walk_steps"`
		Classified  uint64 `json:"classified_accesses"`
		CapHits     uint64 `json:"walk_cap_hits"`
		PoolHits    uint64 `json:"pool_hits"`
		PoolMisses  uint64 `json:"pool_misses"`
		ECacheHits  uint64 `json:"evalcache_hits"`
		ECacheMiss  uint64 `json:"evalcache_misses"`
		ECacheEvict uint64 `json:"evalcache_evictions"`
	}{"counters", c.Evaluations, c.MemoHits, c.SampledPoints, c.WalkSteps,
		c.ClassifiedAccesses, c.WalkCapHits, c.PoolHits, c.PoolMisses,
		c.EvalCacheHits, c.EvalCacheMisses, c.EvalCacheEvictions})
	return j.err
}
