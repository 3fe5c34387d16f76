package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/ga"
	"repro/internal/kernels"
	"repro/internal/telemetry"
)

// TestValidateBadOptions: every out-of-range field fails Validate with an
// error that wraps the typed ErrBadOption sentinel, and every search
// rejects the configuration up front instead of misbehaving mid-run.
func TestValidateBadOptions(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"zero cache", Options{}},
		{"negative sample points", Options{Cache: cache.DM8K, SamplePoints: -1}},
		{"negative workers", Options{Cache: cache.DM8K, Workers: -2}},
		{"negative deadline", Options{Cache: cache.DM8K, Deadline: -time.Second}},
		{"negative budget", Options{Cache: cache.DM8K, MaxEvaluations: -1}},
		{"budget below island count", Options{Cache: cache.DM8K, Islands: 4, MaxEvaluations: 3}},
		// A set block is used as given, never merged with the paper's
		// values, so one without PopSize is invalid on its own.
		{"partial GA block", Options{Cache: cache.DM8K, GA: ga.Params{MinGens: 1, MaxGens: 3, Crossover: ga.Uniform}}},
	}
	k, _ := kernels.Get("T2D")
	nest, err := k.Instance(40)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opt.Validate(); !errors.Is(err, ErrBadOption) {
				t.Fatalf("Validate: %v, want ErrBadOption", err)
			}
			if _, err := OptimizeTiling(context.Background(), nest, tc.opt); !errors.Is(err, ErrBadOption) {
				t.Fatalf("OptimizeTiling: %v, want ErrBadOption", err)
			}
		})
	}
}

// TestValidateAcceptsDefaults: the zero values withDefaults fills in are
// valid, so the options every example and CLI tool builds pass unchanged.
func TestValidateAcceptsDefaults(t *testing.T) {
	if err := (Options{Cache: cache.DM8K}).Validate(); err != nil {
		t.Fatalf("Validate(defaults): %v", err)
	}
}

// TestObserverEventSequence: a complete tiling search emits a well-formed
// event stream — SearchStart first, SearchStop last, one GenerationDone
// per generation, a finalize PhaseChange, evaluation batches — and the
// aggregated counters are consistent with the result.
func TestObserverEventSequence(t *testing.T) {
	k, _ := kernels.Get("MM")
	nest, err := k.Instance(40)
	if err != nil {
		t.Fatal(err)
	}
	var cap telemetry.Capture
	opt := Options{Cache: cache.DM8K, Seed: 7, SamplePoints: 64, Workers: 1, Observer: &cap}
	res, err := OptimizeTiling(context.Background(), nest, opt)
	if err != nil {
		t.Fatal(err)
	}

	events := cap.Events()
	if len(events) == 0 {
		t.Fatal("observer saw no events")
	}
	start, ok := events[0].(telemetry.SearchStart)
	if !ok {
		t.Fatalf("first event is %T, want SearchStart", events[0])
	}
	if start.Search != "tiling" || start.Kernel != "MM" || start.Seed != 7 ||
		start.SamplePoints != 64 || start.Workers != 1 || start.Depth != nest.Depth() {
		t.Errorf("SearchStart fields wrong: %+v", start)
	}
	stop, ok := events[len(events)-1].(telemetry.SearchStop)
	if !ok {
		t.Fatalf("last event is %T, want SearchStop", events[len(events)-1])
	}
	if stop.Search != "tiling" || stop.Stopped != res.Stopped.String() ||
		stop.Generations != res.GA.Generations || stop.Evaluations != res.GA.Evaluations {
		t.Errorf("SearchStop fields inconsistent with result: %+v vs %+v", stop, res.GA)
	}

	var gens, batches, finalize int
	lastGen := -1
	for _, e := range events {
		switch ev := e.(type) {
		case telemetry.GenerationDone:
			gens++
			if ev.Gen <= lastGen {
				t.Errorf("GenerationDone out of order: gen %d after %d", ev.Gen, lastGen)
			}
			lastGen = ev.Gen
		case telemetry.EvaluationBatch:
			batches++
			if ev.Points <= 0 || ev.Accesses == 0 {
				t.Errorf("degenerate EvaluationBatch: %+v", ev)
			}
		case telemetry.PhaseChange:
			if ev.Phase == "finalize" {
				finalize++
			}
		}
	}
	// One event for the initial population (gen 0) plus one per generation.
	if gens != res.GA.Generations+1 {
		t.Errorf("saw %d GenerationDone events, result reports %d generations", gens, res.GA.Generations)
	}
	if batches == 0 {
		t.Error("no EvaluationBatch events")
	}
	if finalize != 1 {
		t.Errorf("saw %d finalize PhaseChange events, want 1", finalize)
	}

	c := cap.Counters()
	if c.Evaluations != uint64(res.GA.Evaluations) {
		t.Errorf("counter Evaluations=%d, result reports %d", c.Evaluations, res.GA.Evaluations)
	}
	if c.SampledPoints == 0 || c.WalkSteps == 0 || c.ClassifiedAccesses == 0 {
		t.Errorf("sampling counters not populated: %+v", c)
	}
	if c.PoolHits+c.PoolMisses == 0 {
		t.Errorf("analyzer pool counters not populated: %+v", c)
	}
}

// TestNilObserverSafe: the default nil observer must be accepted
// everywhere without emitting or allocating recorders.
func TestNilObserverSafe(t *testing.T) {
	k, _ := kernels.Get("T2D")
	nest, err := k.Instance(40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OptimizeTiling(context.Background(), nest, Options{Cache: cache.DM8K, Seed: 1, SamplePoints: 32}); err != nil {
		t.Fatal(err)
	}
}
