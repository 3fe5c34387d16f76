package ga

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// poolBatch evaluates a cohort on n goroutines, each taking the next
// unclaimed candidate, so candidates finish in any order, as core's
// analyzer pool does. It checks that the deme commits in batch order.
type poolBatch struct {
	t      *testing.T
	eval   func([]int64, Rung) float64
	n      int
	values []float64
	last   int
}

func (b *poolBatch) Evaluate(_ context.Context, values [][]int64, r Rung) {
	b.values, b.last = make([]float64, len(values)), -1
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(values); k = int(next.Add(1)) - 1 {
				b.values[k] = b.eval(values[k], r)
			}
		}()
	}
	wg.Wait()
}

func (b *poolBatch) Commit(i int) (float64, bool) {
	if i != b.last+1 {
		b.t.Errorf("committed candidate %d after %d", i, b.last)
	}
	b.last = i
	return b.values[i], false
}

// TestBatchWorkerCountInvariant: a concurrent batch evaluator at any
// worker count reproduces the serial run exactly (result, history,
// evaluations and every checkpoint), also when a budget halts a deme in
// the middle of a generation, with island demes sharing a memo tier, and
// with every fidelity rung a cohort, where rangeBatch is the serial run.
func TestBatchWorkerCountInvariant(t *testing.T) {
	spec := NewTileSpec([]int64{64, 64, 64})
	var calls atomic.Int64
	obj := countingObjective(&calls)
	whole := func(v []int64, _ Rung) float64 { return obj(v) }
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		eval func([]int64, Rung) float64
	}{
		{"base", func(*Config) {}, whole},
		{"budget41", func(c *Config) { c.MaxEvaluations = 41 }, whole},
		{"islands2-shared", func(c *Config) {
			c.Islands = 2
			c.SharedMemo = newMapMemo()
		}, whole},
		{"fidelity3", func(c *Config) {
			c.Fidelity, c.Points = Fidelity{Rungs: 3}, fakePoints
			if c.Batch == nil {
				c.Batch = rangeBatches
			}
		}, rangeCost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(batch func(int) BatchEvaluator) (Result, [][]byte) {
				cfg := PaperConfig(5)
				cfg.Batch = batch
				tc.mut(&cfg)
				var snaps [][]byte
				cfg.Checkpoint = func(c *Checkpoint) error {
					var buf bytes.Buffer
					if err := WriteCheckpoint(&buf, c); err != nil {
						return err
					}
					snaps = append(snaps, buf.Bytes())
					return nil
				}
				res, err := Run(context.Background(), spec, obj, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, snaps
			}
			want, wantSnaps := run(nil)
			for _, n := range []int{1, 3, 8} {
				got, snaps := run(func(int) BatchEvaluator { return &poolBatch{t: t, eval: tc.eval, n: n} })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d workers: result diverges from serial:\n%+v\n%+v", n, got, want)
				}
				if !reflect.DeepEqual(snaps, wantSnaps) {
					t.Fatalf("%d workers: checkpoints diverge from serial", n)
				}
			}
		})
	}
}

// cutBatch reports candidate cut as cut short by the context, which it
// cancels, as an evaluation the context stopped does. Candidates count
// across cohorts, rung cohorts included.
type cutBatch struct {
	eval    func([]int64, Rung) float64
	cut     int
	cancel  context.CancelFunc
	values  []float64
	seen    int // candidates evaluated across cohorts
	first   int // the first candidate of the current cohort
	commits int
}

func (b *cutBatch) Evaluate(_ context.Context, values [][]int64, r Rung) {
	b.first, b.values = b.seen, b.values[:0]
	for _, v := range values {
		b.values = append(b.values, b.eval(v, r))
	}
	b.seen += len(values)
}

func (b *cutBatch) Commit(i int) (float64, bool) {
	b.commits++
	if b.first+i == b.cut {
		b.cancel()
		return b.values[i], true
	}
	return b.values[i], false
}

// TestBatchCutShortHaltsAtNextMiss: a candidate whose evaluation the
// context cut short is committed, as serial evaluation commits the one in
// flight, and the deme halts at its next miss. Later candidates of the
// cohort are evaluated but never committed. On the fidelity ladder the
// cut lands in the middle of generation 0's second rung, and the rest of
// that rung is never committed.
func TestBatchCutShortHaltsAtNextMiss(t *testing.T) {
	spec := NewTileSpec([]int64{64, 64, 64})
	var calls atomic.Int64
	obj := countingObjective(&calls)
	for _, tc := range []struct {
		name  string
		mut   func(*Config)
		eval  func([]int64, Rung) float64
		cut   int // the candidate cut short, counted across cohorts
		evals int // distinct candidates committed
	}{
		// The eleventh fresh candidate of generation 1.
		{"classic", func(*Config) {}, func(v []int64, _ Rung) float64 { return obj(v) }, 40, 41},
		// Rung 1 scores all 30 candidates of generation 0, and rung 2 the
		// 15 it promotes; the cut is the eighth of those.
		{"fidelity3", func(c *Config) { c.Fidelity, c.Points = Fidelity{Rungs: 3}, fakePoints }, rangeCost, 37, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			b := &cutBatch{eval: tc.eval, cut: tc.cut, cancel: cancel}
			cfg := PaperConfig(5)
			tc.mut(&cfg)
			cfg.Batch = func(int) BatchEvaluator { return b }
			res, err := Run(ctx, spec, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stopped != StopCancelled || res.Evaluations != tc.evals || res.Generations != 0 {
				t.Fatalf("stopped %v after %d evaluations and %d generations, want cancelled after %d and 0",
					res.Stopped, res.Evaluations, res.Generations, tc.evals)
			}
			if b.commits != tc.cut+1 {
				t.Fatalf("%d commits, want %d: a candidate after the cut was committed", b.commits, tc.cut+1)
			}
			if b.seen <= tc.cut+1 {
				t.Fatalf("the cut candidate %d ended its cohort (%d evaluated): nothing after it was left uncommitted", tc.cut, b.seen)
			}
		})
	}
}
