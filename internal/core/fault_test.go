package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
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

// faultCase is one search a fault test runs.
type faultCase struct {
	name       string
	fidelity   ga.Fidelity
	workers    int
	multiLevel bool
}

// fidelityCases runs a fault test on cohort evaluation at the default
// worker count and at 4 workers, on the fidelity ladder, whose rungs are
// cohorts too, at the same two worker counts, and on the multi-level
// search's level cohorts at 1 and 4 workers.
var fidelityCases = []faultCase{
	{"fidelity-off", ga.Fidelity{}, 0, false},
	{"rungs3", ga.Fidelity{Rungs: 3}, 0, false},
	{"fidelity-off-workers4", ga.Fidelity{}, 4, false},
	{"rungs3-workers4", ga.Fidelity{Rungs: 3}, 4, false},
	{"multilevel", ga.Fidelity{}, 1, true},
	{"multilevel-workers4", ga.Fidelity{}, 4, true},
}

// faultRun is what a fault test checks of one search.
type faultRun struct {
	phase       string
	tile        []int64
	ga          ga.Result
	quarantined []QuarantinedEval
}

// run runs the case's search on transpose(32) under the fault plan spec:
// OptimizeTiling, or OptimizeTilingMultiLevel over twoLevels. Under
// FailQuarantine every checkpoint is encoded, so a quarantined candidate
// whose value reaches the memo as +Inf fails the search.
func (tc faultCase) run(t *testing.T, opt Options, spec string) (faultRun, error) {
	t.Helper()
	opt.Fidelity, opt.Workers = tc.fidelity, tc.workers
	if opt.FailurePolicy == FailQuarantine {
		opt.Checkpoint = func(c *ga.Checkpoint) error { return ga.WriteCheckpoint(io.Discard, c) }
	}
	ctx := faultCtx(t, spec)
	if tc.multiLevel {
		res, err := OptimizeTilingMultiLevel(ctx, transpose(32), twoLevels(), opt)
		if err != nil {
			return faultRun{}, err
		}
		return faultRun{"multilevel", res.Tile, res.GA, res.Quarantined}, nil
	}
	res, err := OptimizeTiling(ctx, transpose(32), opt)
	if err != nil {
		return faultRun{}, err
	}
	return faultRun{"tiling", res.Tile, res.GA, res.Quarantined}, nil
}

// twoLevels is a hierarchy over testOpt's 2 KB cache and a 16 KB level.
func twoLevels() []Level {
	return []Level{
		{Cache: testOpt(0).Cache, MissPenalty: 10},
		{Cache: cache.Config{Size: 16 * 1024, LineSize: 32, Assoc: 1}, MissPenalty: 100},
	}
}

// checkDegraded asserts a quarantining run's outcome: a tile, a finite
// best value, one quarantine entry of the run's phase whose reason
// contains want, and the same list as the case's other worker count, which
// sameLists holds by search and fidelity.
func checkDegraded(t *testing.T, tc faultCase, r faultRun, want string, sameLists map[string][]QuarantinedEval) {
	t.Helper()
	if len(r.tile) != 2 {
		t.Fatalf("degraded run has no tile: %+v", r)
	}
	if v := r.ga.BestValue; math.IsInf(v, 0) || v >= ga.QuarantineValue {
		t.Fatalf("best value %v is not a finite fitness", v)
	}
	if len(r.quarantined) != 1 {
		t.Fatalf("quarantined = %+v, want exactly one entry", r.quarantined)
	}
	q := r.quarantined[0]
	if q.Phase != r.phase || !strings.Contains(q.Reason, want) || len(q.Values) == 0 {
		t.Fatalf("quarantine entry = %+v, want phase %s and a %q reason", q, r.phase, want)
	}
	key := fmt.Sprint(tc.multiLevel, tc.fidelity)
	if prev, ok := sameLists[key]; ok && !reflect.DeepEqual(prev, r.quarantined) {
		t.Fatalf("quarantine list %+v differs from %+v at another worker count", r.quarantined, prev)
	}
	sameLists[key] = r.quarantined
}

// TestQuarantineCompletesUnderInjectedPanic: with FailQuarantine an
// injected evaluation panic is set aside — the search completes with a
// valid tile, the offending candidate on the quarantine list, and the
// matching telemetry event.
func TestQuarantineCompletesUnderInjectedPanic(t *testing.T) {
	lists := map[string][]QuarantinedEval{}
	for _, tc := range fidelityCases {
		t.Run(tc.name, func(t *testing.T) {
			opt := testOpt(7)
			opt.FailurePolicy = FailQuarantine
			var cap telemetry.Capture
			opt.Observer = &cap
			res, err := tc.run(t, opt, "eval.panic:after=3,times=1")
			if err != nil {
				t.Fatalf("quarantine run failed: %v", err)
			}
			checkDegraded(t, tc, res, "panic", lists)
			q := res.quarantined[0]
			events := 0
			for _, e := range cap.Events() {
				if qe, ok := e.(telemetry.EvaluationQuarantined); ok {
					events++
					if qe.Search != res.phase || qe.Reason != q.Reason {
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
			res, err := tc.run(t, testOpt(7), "eval.panic:after=3,times=1")
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
	lists := map[string][]QuarantinedEval{}
	for _, tc := range fidelityCases {
		t.Run(tc.name, func(t *testing.T) {
			opt := testOpt(7)
			opt.FailurePolicy = FailQuarantine
			// Far above a genuine evaluation's time under the race
			// detector on a loaded host, so only the injected stall trips
			// the watchdog.
			opt.StallTimeout = 500 * time.Millisecond
			res, err := tc.run(t, opt, "eval.stall:after=5,times=1")
			if err != nil {
				t.Fatalf("stalled run did not degrade: %v", err)
			}
			checkDegraded(t, tc, res, "stalled", lists)
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
