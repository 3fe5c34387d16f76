package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ga"
	"repro/internal/telemetry"
)

// FailurePolicy selects how a search treats a candidate whose objective
// evaluation fails (an analyzer panic, an injected fault, a stalled
// evaluation cut off by the watchdog). Cancellation and deadline expiry
// are never failures under either policy: the GA engine turns them into a
// StopReason and the search returns its best-so-far.
type FailurePolicy int

const (
	// FailAbort (the zero value, and the historical behaviour) records
	// the first failure and reports it as the search's error after the GA
	// drains: one broken evaluation fails the whole search.
	FailAbort FailurePolicy = iota
	// FailQuarantine sets the offending candidate aside instead: it is
	// assigned the worst finite fitness (so it can never win, but the
	// arithmetic of generation statistics and checkpoints stays finite),
	// an EvaluationQuarantined telemetry event is emitted, and the search
	// continues. The quarantine list rides on the result; a run with a
	// non-empty list completed in degraded mode.
	FailQuarantine
)

func (p FailurePolicy) String() string {
	if p == FailQuarantine {
		return "quarantine"
	}
	return "abort"
}

// ParseFailurePolicy parses the CLI spelling of a policy.
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	switch s {
	case "", "abort":
		return FailAbort, nil
	case "quarantine":
		return FailQuarantine, nil
	}
	return FailAbort, fmt.Errorf("core: unknown failure policy %q (want abort or quarantine)", s)
}

// QuarantinedEval records one candidate set aside under FailQuarantine.
type QuarantinedEval struct {
	// Values is the candidate's genome value vector as the objective saw
	// it (tile sizes for the tiling searches, pad parameters + tile sizes
	// for the combined ones).
	Values []int64
	// Reason is the failure: the recovered panic value or error text.
	Reason string
	// Phase is the search label the candidate belonged to ("tiling",
	// "padding", ...).
	Phase string
}

// ErrStalled marks an objective evaluation that exceeded
// Options.StallTimeout and was cut off by the watchdog. Under
// FailQuarantine the stalled candidate is quarantined and the search
// degrades to best-so-far instead of hanging; under FailAbort the search
// reports this error.
var ErrStalled = errors.New("core: evaluation stalled")

// evalGuard applies a search's failure policy to failed evaluations:
// errors (recovered panics included) are either noted for the post-run
// abort or converted into a quarantine entry, and context cancellation
// always passes through as a plain poison value. The guard is shared
// across the phases of one search, accumulating every quarantined
// candidate.
type evalGuard struct {
	policy FailurePolicy
	obs    telemetry.Recorder

	mu   sync.Mutex
	sink errSink
	quar []QuarantinedEval
}

// newGuard builds the guard for one search run.
func (o Options) newGuard() *evalGuard {
	return &evalGuard{policy: o.FailurePolicy, obs: o.Observer}
}

// fail applies the policy to one failed evaluation and returns the
// fitness the candidate gets.
func (g *evalGuard) fail(label string, v []int64, err error) float64 {
	if cancelled(err) {
		// A bounded run winding down, not a fault.
		return poison()
	}
	if g.policy != FailQuarantine {
		g.mu.Lock()
		g.sink.note(err)
		g.mu.Unlock()
		return poison()
	}
	values := append([]int64(nil), v...)
	g.mu.Lock()
	g.quar = append(g.quar, QuarantinedEval{Values: values, Reason: err.Error(), Phase: label})
	g.mu.Unlock()
	if g.obs != nil {
		g.obs.Event(telemetry.EvaluationQuarantined{Search: label, Values: values, Reason: err.Error()})
	}
	return ga.QuarantineValue
}

// cancelled reports whether err is the search context ending
// (cancellation or deadline expiry), which no failure policy handles.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// err returns the first aborting failure (nil under FailQuarantine).
func (g *evalGuard) err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sink.err
}

// quarantined returns the accumulated quarantine list (nil when clean).
func (g *evalGuard) quarantined() []QuarantinedEval {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.quar) == 0 {
		return nil
	}
	return append([]QuarantinedEval(nil), g.quar...)
}

// stallGrace is how long the watchdog waits, after cancelling a stalled
// evaluation, for its workers to notice and drain before declaring them
// leaked and abandoning the analyzer pool. Package-level so tests can
// shrink it.
var stallGrace = 250 * time.Millisecond

// watched runs one evaluation under the stall watchdog: if fn has not
// returned within stall, its context is cancelled with ErrStalled and the
// evaluation fails with that error instead of hanging the search. Workers
// that honour their context drain within the grace period and the pooled
// analyzers stay reusable; a worker that truly hangs leaks its goroutine,
// and onHang (when non-nil) is called so the owner can abandon shared
// state the leaked goroutine still references.
func watched(ctx context.Context, stall time.Duration, onHang func(),
	fn func(context.Context) (any, error)) (any, error) {
	wctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	timer := time.AfterFunc(stall, func() { cancel(ErrStalled) })
	defer timer.Stop()
	type result struct {
		v   any
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := fn(wctx)
		done <- result{v, err}
	}()
	stalled := func() bool { return errors.Is(context.Cause(wctx), ErrStalled) }
	wrap := func(r result) (any, error) {
		if r.err != nil && stalled() {
			return r.v, fmt.Errorf("%w after %v", ErrStalled, stall)
		}
		return r.v, r.err
	}
	select {
	case r := <-done:
		return wrap(r)
	case <-wctx.Done():
		grace := time.NewTimer(stallGrace)
		defer grace.Stop()
		select {
		case r := <-done:
			return wrap(r)
		case <-grace.C:
			// The evaluation ignored its cancellation: its goroutines are
			// leaked. Hand shared state back to the owner and fail.
			if onHang != nil {
				onHang()
			}
			if stalled() {
				return nil, fmt.Errorf("%w after %v (workers leaked)", ErrStalled, stall)
			}
			return nil, context.Cause(wctx)
		}
	}
}
