package sampling

import (
	"context"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/iterspace"
)

// TestEvaluateWithInjectedPanicBecomesError: an eval.panic fault fires at
// the armed batch and surfaces as an error from EvaluateWith — at every
// worker count, since the fault fires in the serial entry section.
func TestEvaluateWithInjectedPanicBecomesError(t *testing.T) {
	an := transposeAnalyzer(t, 64, []int64{8, 8})
	box := iterspace.NewBox([]int64{1, 1}, []int64{64, 64})
	s := Draw(box, 300, rand.New(rand.NewPCG(7, 9)))
	for _, workers := range []int{1, 4} {
		ans := analyzers(an, workers)
		plan := faultinject.New(1, faultinject.Rule{Point: faultinject.EvalPanic, After: 2, Times: 1})
		ctx := faultinject.With(context.Background(), plan)
		// Batch 1 passes.
		if _, err := s.EvaluateWith(ctx, ans); err != nil {
			t.Fatalf("workers=%d batch 1: %v", workers, err)
		}
		// Batch 2 trips the injected panic, recovered to an error.
		_, err := s.EvaluateWith(ctx, ans)
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("workers=%d batch 2: err = %v, want recovered panic", workers, err)
		}
		// Batch 3 passes again (times=1) and is complete.
		want := s.Evaluate(an)
		got, err := s.EvaluateWith(ctx, ans)
		if err != nil || got != want {
			t.Fatalf("workers=%d batch 3: %+v, %v (want %+v)", workers, got, err, want)
		}
		if hits, fired := plan.Counts(faultinject.EvalPanic); hits != 3 || fired != 1 {
			t.Fatalf("workers=%d: counts = %d/%d, want 3/1", workers, hits, fired)
		}
	}
}

// TestEvaluateWithInjectedStallHonoursContext: an unbounded eval.stall
// blocks until the context is cancelled, then reports the context error —
// it cannot hang an evaluation forever.
func TestEvaluateWithInjectedStallHonoursContext(t *testing.T) {
	an := transposeAnalyzer(t, 64, []int64{8, 8})
	box := iterspace.NewBox([]int64{1, 1}, []int64{64, 64})
	s := Draw(box, 300, rand.New(rand.NewPCG(7, 9)))
	plan := faultinject.New(1, faultinject.Rule{Point: faultinject.EvalStall, Action: faultinject.Stall})
	ctx, cancel := context.WithCancel(faultinject.With(context.Background(), plan))
	done := make(chan error, 1)
	go func() {
		_, err := s.EvaluateWith(ctx, analyzers(an, 4))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("stalled evaluation returned before cancel: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("stalled evaluation did not unblock on cancel")
	}
}

// TestEvaluateWithBoundedStallCompletes: a bounded stall only delays the
// batch; the result is still complete and correct.
func TestEvaluateWithBoundedStallCompletes(t *testing.T) {
	an := transposeAnalyzer(t, 64, []int64{8, 8})
	box := iterspace.NewBox([]int64{1, 1}, []int64{64, 64})
	s := Draw(box, 300, rand.New(rand.NewPCG(7, 9)))
	plan := faultinject.New(1, faultinject.Rule{
		Point: faultinject.EvalStall, Action: faultinject.Stall, Stall: time.Millisecond,
	})
	ctx := faultinject.With(context.Background(), plan)
	want := s.Evaluate(an)
	got, err := s.EvaluateWith(ctx, analyzers(an, 4))
	if err != nil || got != want {
		t.Fatalf("bounded stall: %+v, %v (want %+v)", got, err, want)
	}
}

// TestEvaluateWithNoPlanUnchanged: without a plan in the context the
// results and errors are exactly the pre-fault-injection behaviour.
func TestEvaluateWithNoPlanUnchanged(t *testing.T) {
	an := transposeAnalyzer(t, 64, []int64{8, 8})
	box := iterspace.NewBox([]int64{1, 1}, []int64{64, 64})
	s := Draw(box, 300, rand.New(rand.NewPCG(7, 9)))
	want := s.Evaluate(an)
	for _, workers := range []int{1, 4} {
		got, err := s.EvaluateWith(context.Background(), analyzers(an, workers))
		if err != nil || got != want {
			t.Fatalf("workers=%d: %+v, %v (want %+v)", workers, got, err, want)
		}
	}
}
