package sampling

import (
	"context"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/iterspace"
)

// checkWorkerCountsMatchSerial: on an n×n transpose with the given tile
// and a sample drawn from seed, at every analyzer count 1..8, 64 and 1000
// (more analyzers than points), EvaluateWith returns Stats exactly equal
// (all six fields) to serial Evaluate — the analyzer count must never
// perturb a search result.
func checkWorkerCountsMatchSerial(t *testing.T, n int64, tile []int64, points int, seed [2]uint64) {
	t.Helper()
	an := transposeAnalyzer(t, n, tile)
	box := iterspace.NewBox([]int64{1, 1}, []int64{n, n})
	s := Draw(box, points, rand.New(rand.NewPCG(seed[0], seed[1])))
	want := s.Evaluate(an)
	for _, workers := range []int{1, 2, 3, 4, 5, 6, 7, 8, 64, 1000} {
		got, err := s.EvaluateWith(context.Background(), analyzers(an, workers))
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", n, workers, err)
		}
		if got != want {
			t.Fatalf("n=%d workers=%d: %+v != serial %+v", n, workers, got, want)
		}
	}
}

// The three samples of checkWorkerCountsMatchSerial: 257 points on a 48×48
// transpose, 300 on 64×64 and 500 on 128×128.
func TestEvaluateWorkerCountsMatchSerial(t *testing.T) {
	checkWorkerCountsMatchSerial(t, 48, []int64{6, 10}, 257, [2]uint64{11, 13})
}

func TestEvaluateContextMatchesSerial(t *testing.T) {
	checkWorkerCountsMatchSerial(t, 64, []int64{8, 8}, 300, [2]uint64{7, 9})
}

func TestEvaluateParallelMatchesSerial(t *testing.T) {
	checkWorkerCountsMatchSerial(t, 128, []int64{16, 8}, 500, [2]uint64{21, 22})
}

// TestEvaluateWithPooledAnalyzers: EvaluateWith over a caller-supplied
// analyzer pool matches serial evaluation, and the same pool Rebind-ed to a
// different tiling still matches a fresh serial evaluation there — the
// reuse pattern the core evaluator's analyzer pool depends on.
func TestEvaluateWithPooledAnalyzers(t *testing.T) {
	an := transposeAnalyzer(t, 48, []int64{6, 10})
	box := iterspace.NewBox([]int64{1, 1}, []int64{48, 48})
	s := Draw(box, 300, rand.New(rand.NewPCG(3, 5)))

	pool := analyzers(an, 4)
	want := s.Evaluate(transposeAnalyzer(t, 48, []int64{6, 10}))
	got, err := s.EvaluateWith(context.Background(), pool)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("EvaluateWith: %+v != serial %+v", got, want)
	}

	// Rebind the whole pool at a new tiling and evaluate again.
	tiled := iterspace.NewTiled(box, []int64{12, 4})
	for _, a := range pool {
		if err := a.Rebind(tiled); err != nil {
			t.Fatal(err)
		}
	}
	want = s.Evaluate(transposeAnalyzer(t, 48, []int64{12, 4}))
	got, err = s.EvaluateWith(context.Background(), pool)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("EvaluateWith after Rebind: %+v != serial %+v", got, want)
	}

	if _, err := s.EvaluateWith(context.Background(), nil); err == nil {
		t.Fatal("EvaluateWith accepted an empty analyzer pool")
	}
}

// expiredAfterCtx models a context that expires only after the last point
// is classified: Err() reports cancellation but Done() never fires, so
// every worker completes its slice. The evaluation must return its
// complete result with a nil error instead of discarding finished work.
type expiredAfterCtx struct{}

func (expiredAfterCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (expiredAfterCtx) Done() <-chan struct{}       { return nil }
func (expiredAfterCtx) Err() error                  { return context.Canceled }
func (expiredAfterCtx) Value(key any) any           { return nil }

// TestEvaluateCompleteResultNotDiscarded is the regression test for the
// tail-error bug: a run that classified every sampled point used to return
// ctx.Err(), throwing away a complete, valid result when the context
// expired after the final point.
func TestEvaluateCompleteResultNotDiscarded(t *testing.T) {
	an := transposeAnalyzer(t, 48, []int64{6, 10})
	box := iterspace.NewBox([]int64{1, 1}, []int64{48, 48})
	s := Draw(box, 300, rand.New(rand.NewPCG(21, 23)))
	want := s.Evaluate(an)
	for _, workers := range []int{2, 4} {
		got, err := s.EvaluateWith(expiredAfterCtx{}, analyzers(an, workers))
		if err != nil {
			t.Fatalf("workers=%d: complete run discarded with error %v", workers, err)
		}
		if got != want {
			t.Fatalf("workers=%d: %+v != serial %+v", workers, got, want)
		}
	}
}
