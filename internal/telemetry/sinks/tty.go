package sinks

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// TTY renders the event stream as human-readable progress lines, one per
// event, prefixed with the search label — the interactive counterpart of
// the JSONL log. Per-evaluation batches are suppressed unless Verbose is
// set (a search runs hundreds of them). Safe for concurrent use.
type TTY struct {
	// Verbose also prints one line per objective evaluation batch.
	Verbose bool

	mu       sync.Mutex
	w        io.Writer
	counters telemetry.Counters
}

// NewTTY returns a TTY sink writing to w.
func NewTTY(w io.Writer) *TTY { return &TTY{w: w} }

// Event implements telemetry.Recorder.
func (t *TTY) Event(e telemetry.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev := e.(type) {
	case telemetry.SearchStart:
		fmt.Fprintf(t.w, "[%s] start %s depth=%d cache=%d:%d:%d seed=%d points=%d workers=%d\n",
			ev.Search, ev.Kernel, ev.Depth, ev.CacheSize, ev.CacheLine, ev.CacheAssoc,
			ev.Seed, ev.SamplePoints, ev.Workers)
	case telemetry.PhaseChange:
		fmt.Fprintf(t.w, "[%s] phase %s\n", ev.Search, ev.Phase)
	case telemetry.GenerationDone:
		label := ev.Search
		if ev.Island > 0 {
			label = fmt.Sprintf("%s/i%d", ev.Search, ev.Island)
		}
		fmt.Fprintf(t.w, "[%s] gen %2d  best %.6g  avg %.6g  best-ever %.6g  evals %d  %v\n",
			label, ev.Gen, ev.Best, ev.Avg, ev.BestEver, ev.Evaluations,
			ev.Elapsed.Round(time.Millisecond))
	case telemetry.EvaluationBatch:
		if t.Verbose {
			fmt.Fprintf(t.w, "  eval %d points: %d hit / %d compulsory / %d replacement (%d walk steps)\n",
				ev.Points, ev.Hits, ev.Compulsory, ev.Replacement, ev.WalkSteps)
		}
	case telemetry.EvaluationRung:
		if t.Verbose {
			label := ev.Search
			if ev.Island > 0 {
				label = fmt.Sprintf("%s/i%d", ev.Search, ev.Island)
			}
			fmt.Fprintf(t.w, "[%s] rung %d @ %d points: %d candidates, %d promoted, %d pruned\n",
				label, ev.Rung, ev.Points, ev.Candidates, ev.Promoted, ev.Pruned)
		}
	case telemetry.IslandMigration:
		fmt.Fprintf(t.w, "[%s] migration i%d -> i%d @ gen %d\n",
			ev.Search, ev.From, ev.To, ev.Gen)
	case telemetry.CheckpointWritten:
		fmt.Fprintf(t.w, "[%s] checkpoint @ gen %d (%d individuals, %d memo entries)\n",
			ev.Search, ev.Gen, ev.Individuals, ev.MemoEntries)
	case telemetry.EvaluationQuarantined:
		fmt.Fprintf(t.w, "[%s] quarantined %v: %s\n", ev.Search, ev.Values, ev.Reason)
	case telemetry.CheckpointRecovered:
		fmt.Fprintf(t.w, "checkpoint recovered: %s unusable (%s), resumed from previous-good copy\n",
			ev.Path, ev.Cause)
	case telemetry.SearchStop:
		fmt.Fprintf(t.w, "[%s] stop (%s): %d generations, %d evaluations, best %.6g, %v\n",
			ev.Search, ev.Stopped, ev.Generations, ev.Evaluations, ev.BestValue,
			ev.Elapsed.Round(time.Millisecond))
	}
}

// Add implements telemetry.Recorder.
func (t *TTY) Add(c telemetry.Counters) {
	t.mu.Lock()
	t.counters = t.counters.Plus(c)
	t.mu.Unlock()
}

// Close prints the accumulated counter summary. It does not close the
// underlying writer.
func (t *TTY) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counters
	if c.IsZero() {
		return nil
	}
	fmt.Fprintf(t.w, "counters: %d evaluations (%d memo hits), %d sampled points, %d walk steps / %d accesses, pool %d hits / %d misses\n",
		c.Evaluations, c.MemoHits, c.SampledPoints, c.WalkSteps,
		c.ClassifiedAccesses, c.PoolHits, c.PoolMisses)
	return nil
}
