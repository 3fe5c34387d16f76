package sampling

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/cme"
	"repro/internal/iterspace"
	"repro/internal/telemetry"
)

// TestRangePrefixSumsToWhole: evaluating a partition of the sample as
// Range sub-samples and summing the pieces equals one whole evaluation —
// the invariant the multi-fidelity ladder's rung promotion rests on (no
// point classified twice, nothing skipped).
func TestRangePrefixSumsToWhole(t *testing.T) {
	an := transposeAnalyzer(t, 48, []int64{6, 10})
	box := iterspace.NewBox([]int64{1, 1}, []int64{48, 48})
	s := Draw(box, 164, rand.New(rand.NewPCG(21, 5)))
	want := s.Evaluate(an)

	var sum cachesim.Stats
	for _, cut := range [][2]int{{0, 41}, {41, 82}, {82, 164}} {
		part, err := s.Range(cut[0], cut[1]).EvaluateWith(context.Background(), []*cme.Analyzer{an})
		if err != nil {
			t.Fatalf("range [%d,%d): %v", cut[0], cut[1], err)
		}
		sum.Add(part)
	}
	if sum != want {
		t.Fatalf("summed range evaluations %+v != whole evaluation %+v", sum, want)
	}
}

// TestEvaluateObservedRungTagsBatch: the rung index rides the telemetry
// batch (and only there — the statistics are rung-independent), and a
// full-fidelity evaluation (rung 0) emits an untagged batch.
func TestEvaluateObservedRungTagsBatch(t *testing.T) {
	an := transposeAnalyzer(t, 48, []int64{6, 10})
	box := iterspace.NewBox([]int64{1, 1}, []int64{48, 48})
	s := Draw(box, 64, rand.New(rand.NewPCG(1, 2)))

	var cap telemetry.Capture
	tagged, err := s.EvaluateObserved(context.Background(), an, &cap, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	classic, err := s.EvaluateObserved(context.Background(), an, &cap, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tagged != classic {
		t.Fatalf("rung tag changed the statistics: %+v vs %+v", tagged, classic)
	}
	events := cap.Events()
	if len(events) != 2 {
		t.Fatalf("captured %d events, want 2 batches", len(events))
	}
	first, ok := events[0].(telemetry.EvaluationBatch)
	if !ok || first.Rung != 3 || first.Island != 2 {
		t.Fatalf("rung batch mis-tagged: %+v", events[0])
	}
	second, ok := events[1].(telemetry.EvaluationBatch)
	if !ok || second.Rung != 0 {
		t.Fatalf("classic batch carries a rung tag: %+v", events[1])
	}
}

// TestSetProfileLabelsEvaluates: flipping the label switch must not
// change results — it only wraps workers in pprof label contexts.
func TestSetProfileLabelsEvaluates(t *testing.T) {
	an := transposeAnalyzer(t, 48, []int64{6, 10})
	box := iterspace.NewBox([]int64{1, 1}, []int64{48, 48})
	s := Draw(box, 128, rand.New(rand.NewPCG(7, 9)))
	want := s.Evaluate(an)

	SetProfileLabels(true)
	defer SetProfileLabels(false)
	got, err := s.EvaluateWith(context.Background(), analyzers(an, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("labelled evaluation %+v != serial %+v", got, want)
	}
}
