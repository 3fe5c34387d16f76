package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/evalcache"
	"repro/internal/ga"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/telemetry"
)

// fidOpt is the shared configuration of the fidelity tests: a small cache
// and sample so the race-enabled runs stay fast, three rungs of halving.
func fidOpt(seed uint64) Options {
	opt := testOpt(seed)
	opt.SamplePoints = 64
	opt.Fidelity = ga.Fidelity{Rungs: 3}
	return opt
}

// TestFidelityWorkerCountInvariant: each rung is a cohort, classified
// concurrently and committed in batch order — every worker count must
// reproduce the same search bit for bit.
func TestFidelityWorkerCountInvariant(t *testing.T) {
	nest := transpose(64)
	opt := fidOpt(3)
	opt.Workers = 1
	base, err := OptimizeTiling(context.Background(), nest, opt)
	if err != nil {
		t.Fatal(err)
	}
	for workers := 2; workers <= 8; workers++ {
		opt.Workers = workers
		got, err := OptimizeTiling(context.Background(), nest, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.Tile, base.Tile) || got.GA.BestValue != base.GA.BestValue {
			t.Fatalf("workers=%d: tile %v best %v != workers=1 tile %v best %v",
				workers, got.Tile, got.GA.BestValue, base.Tile, base.GA.BestValue)
		}
		if !reflect.DeepEqual(got.GA.History, base.GA.History) {
			t.Fatalf("workers=%d: generation history diverged", workers)
		}
	}
}

// TestFidelityIslandsDeterministic: with the ladder on, each island runs
// its own successive halving — two runs of the same multi-island search
// must match exactly, and every island count must succeed.
func TestFidelityIslandsDeterministic(t *testing.T) {
	nest := transpose(64)
	for _, islands := range []int{2, 3} {
		opt := fidOpt(9)
		opt.Islands = islands
		a, err := OptimizeTiling(context.Background(), nest, opt)
		if err != nil {
			t.Fatalf("islands=%d: %v", islands, err)
		}
		b, err := OptimizeTiling(context.Background(), nest, opt)
		if err != nil {
			t.Fatalf("islands=%d rerun: %v", islands, err)
		}
		if !reflect.DeepEqual(a.Tile, b.Tile) || a.GA.BestValue != b.GA.BestValue ||
			!reflect.DeepEqual(a.GA.History, b.GA.History) {
			t.Fatalf("islands=%d: reruns diverged: %v/%v vs %v/%v",
				islands, a.Tile, a.GA.BestValue, b.Tile, b.GA.BestValue)
		}
	}
}

// TestFidelityQualityParity: at the same evaluation budget the ladder
// searches more candidates, so its final tile — re-scored at full
// fidelity on the identical sample — must come out at least as good
// within 1% on the tiling-responsive kernels.
func TestFidelityQualityParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) *ir.Nest
	}{
		{"MM", func(t *testing.T) *ir.Nest { return kernelNest(t, "MM", 64) }},
		{"T2D", func(t *testing.T) *ir.Nest { return transpose(64) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nest := tc.mk(t)
			off := fidOpt(7)
			off.Fidelity = ga.Fidelity{}
			off.MaxEvaluations = 150
			offRes, err := OptimizeTiling(context.Background(), nest, off)
			if err != nil {
				t.Fatal(err)
			}
			on := fidOpt(7)
			on.MaxEvaluations = 150
			onRes, err := OptimizeTiling(context.Background(), nest, on)
			if err != nil {
				t.Fatal(err)
			}
			// Score both winners at full fidelity on the same fixed sample.
			probe := off
			probe.MaxEvaluations = 0
			f, _, err := TileObjective(nest, probe)
			if err != nil {
				t.Fatal(err)
			}
			offFull, onFull := f(offRes.Tile), f(onRes.Tile)
			t.Logf("off: tile=%v full=%v evals=%d; on: tile=%v full=%v evals=%d",
				offRes.Tile, offFull, offRes.GA.Evaluations, onRes.Tile, onFull, onRes.GA.Evaluations)
			if onFull > offFull*1.01 {
				t.Fatalf("fidelity tile %v (full-fidelity %v) worse than 1%% over classic tile %v (%v)",
					onRes.Tile, onFull, offRes.Tile, offFull)
			}
		})
	}
}

// kernelNest instantiates a catalog kernel or fails the test.
func kernelNest(t *testing.T, name string, size int64) *ir.Nest {
	t.Helper()
	k, ok := kernels.Get(name)
	if !ok {
		t.Fatalf("kernel %s missing from catalog", name)
	}
	nest, err := k.Instance(size)
	if err != nil {
		t.Fatal(err)
	}
	return nest
}

// TestFidelityCheckpointResumeBitForBit: interrupt a fidelity search at a
// generation boundary and resume from the JSON round-tripped checkpoint;
// the resumed run must replay the uninterrupted one exactly — the v3
// snapshot carries the point budget spent, so the ladder's budget
// trajectory picks up where it left off.
func TestFidelityCheckpointResumeBitForBit(t *testing.T) {
	nest := transpose(64)
	opt := fidOpt(11)
	opt.MaxEvaluations = 400

	full, err := OptimizeTiling(context.Background(), nest, opt)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := interruptedSearch(t, nest, opt, 2)
	if ckpt.Version != 3 {
		t.Fatalf("fidelity checkpoint Version = %d, want 3", ckpt.Version)
	}
	if ckpt.Fidelity == nil || ckpt.Fidelity.Rungs != 3 {
		t.Fatalf("fidelity checkpoint state missing: %+v", ckpt.Fidelity)
	}
	if ckpt.EvalPoints == 0 {
		t.Fatal("fidelity checkpoint records no evaluation points")
	}

	opt2 := opt
	opt2.ResumeFrom = ckpt
	resumed, err := OptimizeTiling(context.Background(), nest, opt2)
	if err != nil {
		t.Fatalf("resumed search errored: %v", err)
	}
	if !reflect.DeepEqual(resumed.Tile, full.Tile) ||
		resumed.GA.BestValue != full.GA.BestValue ||
		resumed.GA.Generations != full.GA.Generations ||
		!reflect.DeepEqual(resumed.GA.History, full.GA.History) {
		t.Fatalf("resumed run diverged from uninterrupted: %v/%v/%d vs %v/%v/%d",
			resumed.Tile, resumed.GA.BestValue, resumed.GA.Generations,
			full.Tile, full.GA.BestValue, full.GA.Generations)
	}
}

// TestFidelityCheckpointRejectsMismatch: a fidelity checkpoint cannot
// seed a classic run and vice versa — silent trajectory corruption must
// be a typed error instead.
func TestFidelityCheckpointRejectsMismatch(t *testing.T) {
	nest := transpose(64)
	ckpt := interruptedSearch(t, nest, fidOpt(11), 1)

	classic := fidOpt(11)
	classic.Fidelity = ga.Fidelity{}
	classic.ResumeFrom = ckpt
	if _, err := OptimizeTiling(context.Background(), nest, classic); err == nil {
		t.Fatal("classic run accepted a fidelity checkpoint")
	}

	plain := interruptedSearch(t, nest, func() Options {
		o := fidOpt(11)
		o.Fidelity = ga.Fidelity{}
		return o
	}(), 1)
	fid := fidOpt(11)
	fid.ResumeFrom = plain
	if _, err := OptimizeTiling(context.Background(), nest, fid); err == nil {
		t.Fatal("fidelity run accepted a classic checkpoint")
	}
}

// TestFidelityOffByteCompat: with the ladder off, nothing of the feature
// leaks into the observable encodings — checkpoints carry no fidelity or
// point-count fields and the telemetry stream carries no rung tags, so
// classic runs stay byte-identical to earlier releases.
func TestFidelityOffByteCompat(t *testing.T) {
	nest := transpose(64)
	opt := testOpt(5)
	opt.SamplePoints = 64
	var ckptJSON bytes.Buffer
	opt.Checkpoint = func(c *ga.Checkpoint) error {
		ckptJSON.Reset()
		return ga.WriteCheckpoint(&ckptJSON, c)
	}
	var cap telemetry.Capture
	opt.Observer = &cap
	if _, err := OptimizeTiling(context.Background(), nest, opt); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"fidelity", "eval_points", "rung"} {
		if strings.Contains(ckptJSON.String(), needle) {
			t.Errorf("classic checkpoint JSON contains %q", needle)
		}
	}
	for _, e := range cap.Events() {
		switch ev := e.(type) {
		case telemetry.EvaluationRung:
			t.Fatalf("classic run emitted EvaluationRung: %+v", ev)
		case telemetry.EvaluationBatch:
			if ev.Rung != 0 {
				t.Fatalf("classic run tagged a batch with rung %d", ev.Rung)
			}
		}
	}
}

// TestFidelityRungTelemetry: a fidelity run reports its ladder — one
// EvaluationRung event per completed rung with consistent promoted and
// pruned counts, and evaluation batches tagged with their rung.
func TestFidelityRungTelemetry(t *testing.T) {
	nest := transpose(64)
	opt := fidOpt(5)
	opt.Workers = 1
	var cap telemetry.Capture
	opt.Observer = &cap
	if _, err := OptimizeTiling(context.Background(), nest, opt); err != nil {
		t.Fatal(err)
	}
	var rungs, tagged int
	for _, e := range cap.Events() {
		switch ev := e.(type) {
		case telemetry.EvaluationRung:
			rungs++
			if ev.Search != "tiling" || ev.Rung < 1 || ev.Points <= 0 || ev.Candidates < 0 {
				t.Fatalf("malformed EvaluationRung: %+v", ev)
			}
			if ev.Promoted+ev.Pruned > ev.Candidates {
				t.Fatalf("rung accounting broken: %+v", ev)
			}
		case telemetry.EvaluationBatch:
			if ev.Rung > 0 {
				tagged++
			}
		}
	}
	if rungs == 0 {
		t.Fatal("fidelity run emitted no EvaluationRung events")
	}
	if tagged == 0 {
		t.Fatal("no evaluation batch carried a rung tag")
	}
}

// TestFidelitySharedCacheTransparent: per-range statistics caching is
// result-transparent — a fidelity search returns bit-identical results
// with no cache, a cold cache, and a cache pre-warmed by an identical
// earlier search.
func TestFidelitySharedCacheTransparent(t *testing.T) {
	nest := transpose(64)
	base := fidOpt(13)
	plain, err := OptimizeTiling(context.Background(), nest, base)
	if err != nil {
		t.Fatal(err)
	}
	shared := evalcache.New(evalcache.Config{})
	warm := base
	warm.SharedCache = shared
	cold, err := OptimizeTiling(context.Background(), nest, warm)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := OptimizeTiling(context.Background(), nest, warm)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*TilingResult{"cold": cold, "warm": hot} {
		if !reflect.DeepEqual(got.Tile, plain.Tile) || got.GA.BestValue != plain.GA.BestValue ||
			!reflect.DeepEqual(got.GA.History, plain.GA.History) {
			t.Fatalf("%s cached run diverged: %v/%v vs uncached %v/%v",
				name, got.Tile, got.GA.BestValue, plain.Tile, plain.GA.BestValue)
		}
	}
	if m := shared.Metrics(); m.Hits == 0 {
		t.Fatalf("warm rerun hit the shared cache 0 times: %+v", m)
	}
}

// TestFidelityBudgetStops: with the ladder on the budget is charged in
// sample points (MaxEvaluations × sample size), so a tight budget still
// stops the search with StopBudget and a valid best-so-far.
func TestFidelityBudgetStops(t *testing.T) {
	nest := transpose(64)
	opt := fidOpt(17)
	opt.MaxEvaluations = 40
	res, err := OptimizeTiling(context.Background(), nest, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != ga.StopBudget {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, ga.StopBudget)
	}
	if len(res.Tile) != nest.Depth() {
		t.Fatalf("budget-stopped run returned no tile: %v", res.Tile)
	}
}

// TestFidelityOptionsValidate: the Options layer rejects a bad ladder up
// front with ErrBadOption.
func TestFidelityOptionsValidate(t *testing.T) {
	bad := []Options{
		{Cache: testOpt(1).Cache, Fidelity: ga.Fidelity{Rungs: -1}},
	}
	for _, opt := range bad {
		if err := opt.Validate(); !errors.Is(err, ErrBadOption) {
			t.Errorf("Validate(%+v) = %v, want ErrBadOption", opt.Fidelity, err)
		}
	}
	ok := testOpt(1)
	ok.Fidelity = ga.Fidelity{Rungs: 3}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate(valid fidelity) = %v", err)
	}
}

// TestFidelityMultiLevelRejected: the ladder is not a supported
// configuration of the multi-level search, which must refuse it
// explicitly rather than run it untested.
func TestFidelityMultiLevelRejected(t *testing.T) {
	nest := transpose(64)
	opt := fidOpt(1)
	levels := []Level{{Cache: opt.Cache, MissPenalty: 1}}
	_, err := OptimizeTilingMultiLevel(context.Background(), nest, levels, opt)
	if !errors.Is(err, ErrBadOption) {
		t.Fatalf("OptimizeTilingMultiLevel = %v, want ErrBadOption", err)
	}
}

// TestFidelityOtherSearches: the ladder drives every GA search, not just
// plain tiling — order, padding and joint searches complete and return
// well-formed results with rungs enabled.
func TestFidelityOtherSearches(t *testing.T) {
	nest := addLike(24, 2048)
	opt := fidOpt(19)
	opt.MaxEvaluations = 60
	if res, err := OptimizeTilingOrder(context.Background(), nest, opt); err != nil {
		t.Fatalf("order: %v", err)
	} else if len(res.Tile) != nest.Depth() || len(res.Order) != nest.Depth() {
		t.Fatalf("order: malformed result %v/%v", res.Tile, res.Order)
	}
	if res, err := OptimizePadding(context.Background(), nest, opt); err != nil {
		t.Fatalf("padding: %v", err)
	} else if res.PaddedNest == nil {
		t.Fatal("padding: nil padded nest")
	}
	if res, err := OptimizeJoint(context.Background(), nest, opt); err != nil {
		t.Fatalf("joint: %v", err)
	} else if len(res.Tile) != nest.Depth() {
		t.Fatalf("joint: malformed tile %v", res.Tile)
	}
}
