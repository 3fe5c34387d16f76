package core

import (
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ga"
	"repro/internal/telemetry"
)

// faultCtx threads a freshly parsed plan into a context, failing the test
// on a bad spec.
func faultCtx(t *testing.T, spec string) context.Context {
	t.Helper()
	plan, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return faultinject.With(context.Background(), plan)
}

// fidelityCases runs a fault test on cohort evaluation at the default
// worker count and at 4 workers, and on the fidelity ladder, whose partial
// evaluations route their failures through the same guard.
var fidelityCases = []struct {
	name     string
	fidelity ga.Fidelity
	workers  int
}{
	{"fidelity-off", ga.Fidelity{}, 0},
	{"rungs3", ga.Fidelity{Rungs: 3}, 0},
	{"fidelity-off-workers4", ga.Fidelity{}, 4},
}

// TestQuarantineCompletesUnderInjectedPanic: with FailQuarantine an
// injected evaluation panic is set aside — the search completes with a
// valid tile, the offending candidate on the quarantine list, and the
// matching telemetry event.
func TestQuarantineCompletesUnderInjectedPanic(t *testing.T) {
	for _, tc := range fidelityCases {
		t.Run(tc.name, func(t *testing.T) {
			nest := transpose(32)
			opt := testOpt(7)
			opt.Fidelity = tc.fidelity
			opt.Workers = tc.workers
			opt.FailurePolicy = FailQuarantine
			var cap telemetry.Capture
			opt.Observer = &cap
			res, err := OptimizeTiling(faultCtx(t, "eval.panic:after=3,times=1"), nest, opt)
			if err != nil {
				t.Fatalf("quarantine run failed: %v", err)
			}
			if len(res.Tile) != 2 {
				t.Fatalf("degraded run has no tile: %+v", res)
			}
			if len(res.Quarantined) != 1 {
				t.Fatalf("quarantined = %v, want exactly one entry", res.Quarantined)
			}
			q := res.Quarantined[0]
			if q.Phase != "tiling" || !strings.Contains(q.Reason, "panic") || len(q.Values) == 0 {
				t.Fatalf("quarantine entry = %+v", q)
			}
			events := 0
			for _, e := range cap.Events() {
				if qe, ok := e.(telemetry.EvaluationQuarantined); ok {
					events++
					if qe.Search != "tiling" || qe.Reason != q.Reason {
						t.Fatalf("event %+v does not match entry %+v", qe, q)
					}
				}
			}
			if events != 1 {
				t.Fatalf("%d EvaluationQuarantined events, want 1", events)
			}
		})
	}
}

// TestQuarantineDeterministicPerSeedAndPlan: runs with the same seed and
// freshly built identical fault plans produce identical results at any
// worker count — each candidate draws its fault hits in batch order
// before the fan-out, so scheduling cannot move them.
func TestQuarantineDeterministicPerSeedAndPlan(t *testing.T) {
	run := func(workers int) *TilingResult {
		opt := testOpt(7)
		opt.FailurePolicy = FailQuarantine
		opt.Workers = workers
		res, err := OptimizeTiling(faultCtx(t, "eval.panic:after=4,times=2"), transpose(32), opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(0)
	for _, workers := range []int{0, 4} {
		b := run(workers)
		if len(a.Tile) != len(b.Tile) || a.Tile[0] != b.Tile[0] || a.Tile[1] != b.Tile[1] {
			t.Fatalf("workers=%d: tiles diverged: %v vs %v", workers, a.Tile, b.Tile)
		}
		if a.GA.BestValue != b.GA.BestValue || a.GA.Evaluations != b.GA.Evaluations {
			t.Fatalf("workers=%d: GA traces diverged: %+v vs %+v", workers, a.GA, b.GA)
		}
		if len(a.Quarantined) != len(b.Quarantined) {
			t.Fatalf("workers=%d: quarantine lists diverged: %v vs %v", workers, a.Quarantined, b.Quarantined)
		}
		for i := range a.Quarantined {
			if a.Quarantined[i].Reason != b.Quarantined[i].Reason ||
				!reflect.DeepEqual(a.Quarantined[i].Values, b.Quarantined[i].Values) {
				t.Fatalf("workers=%d: quarantine %d diverged: %+v vs %+v", workers, i, a.Quarantined[i], b.Quarantined[i])
			}
		}
	}
}

// TestQuarantineCheckpointsStayEncodable: two candidates of one
// generation quarantined must not push the generation's average past the
// largest float64, or the checkpoint written after it cannot be encoded
// and the search fails at its first checkpoint. The average covers the
// members that evaluated.
func TestQuarantineCheckpointsStayEncodable(t *testing.T) {
	opt := testOpt(7)
	opt.FailurePolicy = FailQuarantine
	written := 0
	opt.Checkpoint = func(c *ga.Checkpoint) error {
		written++
		for _, st := range c.History {
			if st.Avg >= ga.QuarantineValue {
				t.Errorf("generation %d average %g reaches the quarantine value", st.Gen, st.Avg)
			}
		}
		return ga.WriteCheckpoint(io.Discard, c)
	}
	res, err := OptimizeTiling(faultCtx(t, "eval.panic:after=4,times=2"), transpose(32), opt)
	if err != nil {
		t.Fatalf("quarantining search failed: %v", err)
	}
	if len(res.Quarantined) != 2 || written == 0 {
		t.Fatalf("quarantined %d candidates and wrote %d checkpoints, want 2 and some", len(res.Quarantined), written)
	}
}

// TestAbortPolicyFailsOnInjectedPanic: the default policy preserves
// today's contract — a broken evaluation fails the search.
func TestAbortPolicyFailsOnInjectedPanic(t *testing.T) {
	for _, tc := range fidelityCases {
		t.Run(tc.name, func(t *testing.T) {
			opt := testOpt(7)
			opt.Fidelity = tc.fidelity
			opt.Workers = tc.workers
			res, err := OptimizeTiling(faultCtx(t, "eval.panic:after=3,times=1"), transpose(32), opt)
			if err == nil {
				t.Fatalf("abort policy swallowed the fault: %+v", res)
			}
			if !strings.Contains(err.Error(), "panic") {
				t.Fatalf("err = %v, want the recovered panic", err)
			}
		})
	}
}

// TestPoliciesAgreeOnCleanRuns: with no fault plan, FailQuarantine is
// byte-for-byte the FailAbort search — the policy only matters when an
// evaluation actually fails.
func TestPoliciesAgreeOnCleanRuns(t *testing.T) {
	optA := testOpt(7)
	a, err := OptimizeTiling(context.Background(), transpose(32), optA)
	if err != nil {
		t.Fatal(err)
	}
	optQ := testOpt(7)
	optQ.FailurePolicy = FailQuarantine
	q, err := OptimizeTiling(context.Background(), transpose(32), optQ)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tile[0] != q.Tile[0] || a.Tile[1] != q.Tile[1] || a.GA.BestValue != q.GA.BestValue ||
		a.GA.Evaluations != q.GA.Evaluations || len(q.Quarantined) != 0 {
		t.Fatalf("clean runs diverged: %+v vs %+v (quarantined %v)", a.GA, q.GA, q.Quarantined)
	}
}

// TestWatchdogQuarantinesStalledEvaluation: an injected unbounded stall
// trips the StallTimeout watchdog; under FailQuarantine the search
// degrades to best-so-far instead of hanging.
func TestWatchdogQuarantinesStalledEvaluation(t *testing.T) {
	for _, tc := range fidelityCases {
		t.Run(tc.name, func(t *testing.T) {
			opt := testOpt(7)
			opt.Fidelity = tc.fidelity
			opt.Workers = tc.workers
			opt.FailurePolicy = FailQuarantine
			// Far above a genuine evaluation's time under the race
			// detector on a loaded host, so only the injected stall trips
			// the watchdog.
			opt.StallTimeout = 500 * time.Millisecond
			res, err := OptimizeTiling(faultCtx(t, "eval.stall:after=5,times=1"), transpose(32), opt)
			if err != nil {
				t.Fatalf("stalled run did not degrade: %v", err)
			}
			if len(res.Quarantined) != 1 || !strings.Contains(res.Quarantined[0].Reason, "stalled") {
				t.Fatalf("quarantined = %+v, want one stalled entry", res.Quarantined)
			}
			if len(res.Tile) != 2 {
				t.Fatalf("degraded run has no tile: %+v", res)
			}
		})
	}
}

// TestWatchedDrainsContextAwareEvaluation: when the watchdog fires and
// the evaluation honours its context, the workers drain inside the grace
// period — ErrStalled is reported and nothing is abandoned.
func TestWatchedDrainsContextAwareEvaluation(t *testing.T) {
	abandoned := false
	_, err := watched(context.Background(), 5*time.Millisecond,
		func() { abandoned = true },
		func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if abandoned {
		t.Fatal("drained evaluation was abandoned anyway")
	}
}

// TestWatchedAbandonsHungEvaluation: an evaluation that ignores its
// cancellation leaks; after the grace period the watchdog calls onHang so
// the owner can stop sharing state with the leaked goroutine.
func TestWatchedAbandonsHungEvaluation(t *testing.T) {
	old := stallGrace
	stallGrace = 10 * time.Millisecond
	t.Cleanup(func() { stallGrace = old })
	hung := make(chan struct{})
	t.Cleanup(func() { close(hung) })
	abandoned := false
	_, err := watched(context.Background(), 5*time.Millisecond,
		func() { abandoned = true },
		func(context.Context) (any, error) {
			<-hung // deliberately ignores ctx: a true hang
			return nil, nil
		})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if !abandoned {
		t.Fatal("hung evaluation did not trigger onHang")
	}
}

// TestWatchedPassthroughFastEvaluation: an evaluation that finishes in
// time passes its result through untouched.
func TestWatchedPassthroughFastEvaluation(t *testing.T) {
	v, err := watched(context.Background(), time.Second, nil,
		func(context.Context) (any, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("watched = %v, %v", v, err)
	}
}

func TestValidateFailureOptions(t *testing.T) {
	opt := testOpt(1)
	opt.FailurePolicy = FailurePolicy(9)
	if err := opt.Validate(); !errors.Is(err, ErrBadOption) {
		t.Fatalf("bad policy accepted: %v", err)
	}
	opt = testOpt(1)
	opt.StallTimeout = -time.Second
	if err := opt.Validate(); !errors.Is(err, ErrBadOption) {
		t.Fatalf("negative stall timeout accepted: %v", err)
	}
	if p, err := ParseFailurePolicy("quarantine"); err != nil || p != FailQuarantine {
		t.Fatalf("ParseFailurePolicy(quarantine) = %v, %v", p, err)
	}
	if p, err := ParseFailurePolicy(""); err != nil || p != FailAbort {
		t.Fatalf("ParseFailurePolicy(\"\") = %v, %v", p, err)
	}
	if _, err := ParseFailurePolicy("explode"); err == nil {
		t.Fatal("ParseFailurePolicy(explode) accepted")
	}
	if FailAbort.String() != "abort" || FailQuarantine.String() != "quarantine" {
		t.Fatal("FailurePolicy.String drifted")
	}
}
