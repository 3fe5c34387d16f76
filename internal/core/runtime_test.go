package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ga"
	"repro/internal/ir"
	"repro/internal/iterspace"
	"repro/internal/kernels"
	"repro/internal/telemetry"
)

// requireValidTiling asserts the best-so-far contract: whatever stopped the
// search, the result must carry a decodable tile of the right rank with
// positive entries, a transformed nest, and finite estimates.
func requireValidTiling(t *testing.T, res *TilingResult, depth int) {
	t.Helper()
	if res == nil {
		t.Fatal("nil result")
	}
	if len(res.Tile) != depth {
		t.Fatalf("tile %v has rank %d, want %d", res.Tile, len(res.Tile), depth)
	}
	for d, v := range res.Tile {
		if v < 1 {
			t.Fatalf("tile dimension %d is %d", d, v)
		}
	}
	if res.TiledNest == nil {
		t.Fatal("nil tiled nest")
	}
	if err := res.TiledNest.Validate(); err != nil {
		t.Fatalf("tiled nest invalid: %v", err)
	}
}

// TestDeadlineReturnsBestSoFar: a deadline far shorter than the search
// still yields a valid tile, tagged StopDeadline — not an error. The
// deadline is one nanosecond so it is guaranteed to have expired before
// the GA's first halt check no matter how fast the point solver gets;
// the force-evaluated first candidate still provides a best-so-far.
func TestDeadlineReturnsBestSoFar(t *testing.T) {
	nest := transpose(256)
	opt := testOpt(5)
	opt.Deadline = time.Nanosecond
	res, err := OptimizeTiling(context.Background(), nest, opt)
	if err != nil {
		t.Fatalf("deadline surfaced as error: %v", err)
	}
	requireValidTiling(t, res, nest.Depth())
	if res.Stopped != ga.StopDeadline {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, ga.StopDeadline)
	}
}

// TestExpiredContextReturnsBestSoFar: even a context that is already dead
// on entry produces a valid result (the first candidate is force-evaluated).
func TestExpiredContextReturnsBestSoFar(t *testing.T) {
	nest := transpose(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := OptimizeTiling(ctx, nest, testOpt(5))
	if err != nil {
		t.Fatalf("cancelled context surfaced as error: %v", err)
	}
	requireValidTiling(t, res, nest.Depth())
	if res.Stopped != ga.StopCancelled {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, ga.StopCancelled)
	}
}

// TestBudgetReturnsBestSoFar: a 10-evaluation budget halts the GA with
// StopBudget and at most 10 distinct evaluations, still returning a tile.
func TestBudgetReturnsBestSoFar(t *testing.T) {
	nest := transpose(64)
	opt := testOpt(5)
	opt.MaxEvaluations = 10
	res, err := OptimizeTiling(context.Background(), nest, opt)
	if err != nil {
		t.Fatalf("budget surfaced as error: %v", err)
	}
	requireValidTiling(t, res, nest.Depth())
	if res.Stopped != ga.StopBudget {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, ga.StopBudget)
	}
	if res.GA.Evaluations > 10 {
		t.Fatalf("spent %d evaluations over a budget of 10", res.GA.Evaluations)
	}
}

// TestProgressCancelMidSearch: cancelling from the observer's
// per-generation event stops the search at the next generation boundary
// with StopCancelled, and generation events arrive in order.
func TestProgressCancelMidSearch(t *testing.T) {
	nest := transpose(64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := testOpt(5)
	obs := &cancelAtGen{gen: 2, cancel: cancel}
	opt.Observer = obs
	res, err := OptimizeTiling(ctx, nest, opt)
	if err != nil {
		t.Fatalf("cancel surfaced as error: %v", err)
	}
	requireValidTiling(t, res, nest.Depth())
	if res.Stopped != ga.StopCancelled {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, ga.StopCancelled)
	}
	if len(obs.gens) == 0 || obs.gens[len(obs.gens)-1] != 2 {
		t.Fatalf("generation events %v, want ... ending at 2", obs.gens)
	}
	if res.GA.Generations != 2 {
		t.Fatalf("ran %d generations after cancelling at 2", res.GA.Generations)
	}
}

// cancelAtGen records the GenerationDone sequence and calls cancel once
// generation gen completes.
type cancelAtGen struct {
	gen    int
	cancel context.CancelFunc
	gens   []int
}

func (c *cancelAtGen) Event(e telemetry.Event) {
	if g, ok := e.(telemetry.GenerationDone); ok {
		c.gens = append(c.gens, g.Gen)
		if g.Gen == c.gen {
			c.cancel()
		}
	}
}

func (c *cancelAtGen) Add(telemetry.Counters) {}

// TestWorkerPanicIsError: a corrupted sample point makes an evaluation
// panic; the panic must surface as an error from the evaluation (and
// hence the search), never crash the process.
func TestWorkerPanicIsError(t *testing.T) {
	nest := transpose(64)
	opt := testOpt(5).withDefaults()
	ev, err := newEvaluator(nest, opt)
	if err != nil {
		t.Fatal(err)
	}
	// A too-short point mid-sample panics on index; the panic must come
	// back as an error.
	ev.sample.Points[len(ev.sample.Points)/2] = []int64{}
	_, err = ev.tiled(context.Background(), nest, []int64{16, 16})
	if err == nil {
		t.Fatal("panicking worker returned no error")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error %q does not mention the panic", err)
	}
}

// TestSearchSurfacesWorkerPanic: the same corruption inside a full search
// must fail the search with the panic error rather than return a result.
func TestSearchSurfacesWorkerPanic(t *testing.T) {
	nest := transpose(64)
	opt := testOpt(5).withDefaults()
	ev, err := newEvaluator(nest, opt)
	if err != nil {
		t.Fatal(err)
	}
	ev.sample.Points[0] = []int64{}
	_, err = ev.tiled(context.Background(), nest, []int64{8, 8})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("tiled evaluation error = %v, want worker panic", err)
	}
}

// interruptedSearch runs OptimizeTiling with per-generation checkpointing,
// cancels after the checkpoint at generation stopAt, and returns the last
// snapshot serialised through the JSON round trip (as a real resume would).
func interruptedSearch(t *testing.T, nest *ir.Nest, opt Options, stopAt int) *ga.Checkpoint {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var latest bytes.Buffer
	opt.Checkpoint = func(c *ga.Checkpoint) error {
		latest.Reset()
		if err := ga.WriteCheckpoint(&latest, c); err != nil {
			return err
		}
		if c.Gen == stopAt {
			cancel()
		}
		return nil
	}
	res, err := OptimizeTiling(ctx, nest, opt)
	if err != nil {
		t.Fatalf("interrupted search errored: %v", err)
	}
	if res.Stopped != ga.StopCancelled {
		t.Fatalf("interrupted search Stopped = %v, want %v", res.Stopped, ga.StopCancelled)
	}
	ckpt, err := ga.ReadCheckpoint(&latest)
	if err != nil {
		t.Fatalf("reading checkpoint back: %v", err)
	}
	if ckpt.Gen != stopAt {
		t.Fatalf("last checkpoint at generation %d, want %d", ckpt.Gen, stopAt)
	}
	return ckpt
}

// TestCheckpointResumeBitForBit: interrupt a search at generation k, resume
// from the (JSON round-tripped) checkpoint, and require the resumed run to
// reproduce the uninterrupted run exactly — same tile, same evaluation
// count, same generation history — for MM and a NAS kernel.
func TestCheckpointResumeBitForBit(t *testing.T) {
	cases := []struct {
		kernel string
		size   int64
	}{
		{"MM", 40},
		{"ADD", 16},
	}
	for _, tc := range cases {
		t.Run(tc.kernel, func(t *testing.T) {
			k, ok := kernels.Get(tc.kernel)
			if !ok {
				t.Fatalf("kernel %s missing from catalog", tc.kernel)
			}
			nest, err := k.Instance(tc.size)
			if err != nil {
				t.Fatal(err)
			}
			opt := testOpt(11)
			opt.SamplePoints = 64 // keep the race-enabled run fast

			full, err := OptimizeTiling(context.Background(), nest, opt)
			if err != nil {
				t.Fatal(err)
			}

			ckpt := interruptedSearch(t, nest, opt, 2)

			opt2 := opt
			opt2.ResumeFrom = ckpt
			resumed, err := OptimizeTiling(context.Background(), nest, opt2)
			if err != nil {
				t.Fatalf("resumed search errored: %v", err)
			}

			if !reflect.DeepEqual(resumed.Tile, full.Tile) {
				t.Fatalf("resumed tile %v != uninterrupted %v", resumed.Tile, full.Tile)
			}
			if resumed.GA.BestValue != full.GA.BestValue {
				t.Fatalf("resumed best %v != uninterrupted %v", resumed.GA.BestValue, full.GA.BestValue)
			}
			if resumed.GA.Evaluations != full.GA.Evaluations {
				t.Fatalf("resumed evaluations %d != uninterrupted %d", resumed.GA.Evaluations, full.GA.Evaluations)
			}
			if resumed.GA.Generations != full.GA.Generations {
				t.Fatalf("resumed generations %d != uninterrupted %d", resumed.GA.Generations, full.GA.Generations)
			}
			if !reflect.DeepEqual(resumed.GA.History, full.GA.History) {
				t.Fatalf("resumed history diverges:\n%v\nvs uninterrupted\n%v", resumed.GA.History, full.GA.History)
			}
			if resumed.Stopped != ga.StopConverged {
				t.Fatalf("resumed run Stopped = %v, want %v", resumed.Stopped, ga.StopConverged)
			}
		})
	}
}

// TestWorkerCountInvariant: the Workers knob changes only how fast a
// search runs, never what it finds. A generation's candidates are
// classified concurrently, each whole on one analyzer, and committed in
// batch order, and a lone evaluation classifies on pool[0] alone, so
// searches differing only in worker count must match result for result
// and checkpoint for checkpoint. The padding-then-tiling case rebuilds one
// worker's analyzer per padded candidate; the budget case halts in the
// middle of generation 1; the multi-level case runs one cohort per cache
// level and sums each candidate's levels at its commit.
func TestWorkerCountInvariant(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		mut  func(*Options)
		run  func(Options) (any, error)
	}{
		{"tiling", func(o *Options) { o.SamplePoints = 164 }, func(o Options) (any, error) {
			return OptimizeTiling(ctx, transpose(64), o)
		}},
		{"padtile", func(o *Options) { o.SamplePoints = 64 }, func(o Options) (any, error) {
			return OptimizePaddingThenTiling(ctx, addLike(16, 2048), o)
		}},
		{"budget41", func(o *Options) { o.SamplePoints = 64; o.MaxEvaluations = 41 }, func(o Options) (any, error) {
			res, err := OptimizeTiling(ctx, transpose(64), o)
			if err == nil && (res.Stopped != ga.StopBudget || res.GA.Evaluations != 41) {
				t.Fatalf("budget run stopped %v after %d evaluations, want budget after 41", res.Stopped, res.GA.Evaluations)
			}
			return res, err
		}},
		{"multilevel", func(o *Options) { o.SamplePoints = 64 }, func(o Options) (any, error) {
			return OptimizeTilingMultiLevel(ctx, transpose(64), twoLevels(), o)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first any
			var firstSnaps [][]byte
			for _, workers := range []int{1, 3, 7} {
				opt := testOpt(9)
				tc.mut(&opt)
				opt.Workers = workers
				var snaps [][]byte
				opt.Checkpoint = func(c *ga.Checkpoint) error {
					var buf bytes.Buffer
					if err := ga.WriteCheckpoint(&buf, c); err != nil {
						return err
					}
					snaps = append(snaps, buf.Bytes())
					return nil
				}
				res, err := tc.run(opt)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if first == nil {
					first, firstSnaps = res, snaps
					continue
				}
				if !reflect.DeepEqual(res, first) {
					t.Fatalf("workers=%d result diverges from workers=1:\n%+v\nvs\n%+v", workers, res, first)
				}
				if !reflect.DeepEqual(snaps, firstSnaps) {
					t.Fatalf("workers=%d wrote %d checkpoints differing from workers=1's %d", workers, len(snaps), len(firstSnaps))
				}
			}
		})
	}
}

// TestLoneEvaluationBindsOneAnalyzer: a lone evaluation classifies its
// whole sample on pool[0], leaving the other workers' slots empty, and
// reports one pool miss. A cohort after it fills the empty slots from
// pool[0] without a miss, so its pool counters match one worker's. A
// cohort over one fidelity rung's range fills them too, scores each
// candidate as a lone evaluation of that range does, and tags its
// batches with the rung.
func TestLoneEvaluationBindsOneAnalyzer(t *testing.T) {
	nest := transpose(64)
	tiles := [][]int64{{4, 4}, {16, 8}, {2, 32}, {64, 1}, {5, 7}}
	lone := func(workers int) (*evaluator, *cohort, *telemetry.Capture) {
		t.Helper()
		cap := &telemetry.Capture{}
		opt := testOpt(5)
		opt.Workers, opt.Observer = workers, cap
		ev, err := newEvaluator(nest, opt.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ev.tiled(context.Background(), nest, []int64{8, 8}); err != nil {
			t.Fatal(err)
		}
		if ev.pool[0] == nil {
			t.Fatalf("workers=%d: the lone evaluation left pool[0] empty", workers)
		}
		for w, an := range ev.pool[1:] {
			if an != nil {
				t.Fatalf("workers=%d: the lone evaluation bound pool[%d]", workers, w+1)
			}
		}
		if got := cap.Counters(); got.PoolHits != 0 || got.PoolMisses != 1 {
			t.Fatalf("workers=%d: lone evaluation counted %d pool hits and %d misses, want 0 and 1", workers, got.PoolHits, got.PoolMisses)
		}
		return ev, &cohort{ev: ev, guard: opt.newGuard(), label: "tiling",
			decode: func(e *evaluator, v []int64) (*ir.Nest, iterspace.Space, error) {
				return nest, iterspace.NewTiled(e.box, v), nil
			}}, cap
	}
	var counters []telemetry.Counters
	for _, workers := range []int{1, 4} {
		_, c, cap := lone(workers)
		c.Evaluate(context.Background(), tiles, ga.Rung{})
		for i := range tiles {
			if v, _ := c.Commit(i); v >= ga.QuarantineValue {
				t.Fatalf("workers=%d: candidate %v failed", workers, tiles[i])
			}
		}
		counters = append(counters, cap.Counters())
	}
	if counters[0].PoolHits != counters[1].PoolHits || counters[0].PoolMisses != counters[1].PoolMisses {
		t.Fatalf("pool counters differ across worker counts: %+v vs %+v", counters[0], counters[1])
	}

	ev, c, cap := lone(4)
	rung := ga.Rung{Lo: 16, Hi: 32, Index: 2}
	c.Evaluate(context.Background(), tiles, rung)
	for w, an := range ev.pool {
		if an == nil {
			t.Fatalf("the range cohort left pool[%d] empty", w)
		}
	}
	from := len(cap.Events())
	got := make([]float64, len(tiles))
	for i := range tiles {
		got[i], _ = c.Commit(i)
	}
	batches := 0
	for _, e := range cap.Events()[from:] {
		if b, ok := e.(telemetry.EvaluationBatch); ok {
			batches++
			if b.Rung != 2 || b.Points != 16 {
				t.Fatalf("range cohort batch tagged rung %d over %d points, want rung 2 over 16", b.Rung, b.Points)
			}
		}
	}
	if batches != len(tiles) {
		t.Fatalf("range cohort reported %d batches, want %d", batches, len(tiles))
	}
	for i, tile := range tiles {
		st, err := ev.evalRange(context.Background(), nest, iterspace.NewTiled(ev.box, tile), rung)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(st.Replacement); got[i] != want {
			t.Fatalf("tile %v: range cohort scored %v, a lone evaluation of the range %v", tile, got[i], want)
		}
	}
}

// TestResumeRejectsMismatchedSearch: a checkpoint from one search must not
// silently seed a different one.
func TestResumeRejectsMismatchedSearch(t *testing.T) {
	nest := transpose(64)
	opt := testOpt(5)
	ckpt := interruptedSearch(t, nest, opt, 1)

	bad := opt
	bad.ResumeFrom = ckpt
	if _, err := OptimizePadding(context.Background(), nest, bad); err == nil {
		t.Fatal("padding search accepted a tiling checkpoint")
	}
}
