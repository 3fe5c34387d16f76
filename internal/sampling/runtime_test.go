package sampling

import (
	"context"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/iterspace"
)

// TestEvaluateContextCancel: a cancelled context stops EvaluateWith with
// the context's error, in both the serial and the parallel path.
func TestEvaluateContextCancel(t *testing.T) {
	an := transposeAnalyzer(t, 64, []int64{8, 8})
	box := iterspace.NewBox([]int64{1, 1}, []int64{64, 64})
	s := Draw(box, 300, rand.New(rand.NewPCG(7, 9)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := s.EvaluateWith(ctx, analyzers(an, workers)); err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestEvaluateContextPanicRecovery: a corrupt point panics inside exactly
// one worker; every path (serial and parallel) must return the panic as an
// error, with the remaining workers draining instead of deadlocking the
// WaitGroup or crashing the process.
func TestEvaluateContextPanicRecovery(t *testing.T) {
	an := transposeAnalyzer(t, 64, []int64{8, 8})
	box := iterspace.NewBox([]int64{1, 1}, []int64{64, 64})
	s := Draw(box, 300, rand.New(rand.NewPCG(7, 9)))
	s.Points[150] = []int64{} // too short for the tiled space: index panic
	for _, workers := range []int{1, 4} {
		_, err := s.EvaluateWith(context.Background(), analyzers(an, workers))
		if err == nil {
			t.Fatalf("workers=%d: panic was swallowed", workers)
		}
		if !strings.Contains(err.Error(), "panic") {
			t.Fatalf("workers=%d: error %q does not report the panic", workers, err)
		}
	}
}
