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
	obj    Objective
	n      int
	values []float64
	last   int
}

func (b *poolBatch) Evaluate(_ context.Context, values [][]int64) {
	b.values, b.last = make([]float64, len(values)), -1
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(values); k = int(next.Add(1)) - 1 {
				b.values[k] = b.obj(values[k])
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
// the middle of a generation and with island demes sharing a memo tier.
func TestBatchWorkerCountInvariant(t *testing.T) {
	spec := NewTileSpec([]int64{64, 64, 64})
	var calls atomic.Int64
	obj := countingObjective(&calls)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"base", func(*Config) {}},
		{"budget41", func(c *Config) { c.MaxEvaluations = 41 }},
		{"islands2-shared", func(c *Config) {
			c.Islands = 2
			c.SharedMemo = newMapMemo()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(batch func(int) BatchEvaluator) (Result, [][]byte) {
				cfg := PaperConfig(5)
				tc.mut(&cfg)
				cfg.Batch = batch
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
				got, snaps := run(func(int) BatchEvaluator { return &poolBatch{t: t, obj: obj, n: n} })
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
// cancels, as an evaluation the context stopped does.
type cutBatch struct {
	obj    Objective
	cut    int
	cancel context.CancelFunc
	values []float64
	seen   int // candidates evaluated across cohorts
	first  int // the first candidate of the current cohort
}

func (b *cutBatch) Evaluate(_ context.Context, values [][]int64) {
	b.first, b.values = b.seen, b.values[:0]
	for _, v := range values {
		b.values = append(b.values, b.obj(v))
	}
	b.seen += len(values)
}

func (b *cutBatch) Commit(i int) (float64, bool) {
	if b.first+i == b.cut {
		b.cancel()
		return b.values[i], true
	}
	return b.values[i], false
}

// TestBatchCutShortHaltsAtNextMiss: a candidate whose evaluation the
// context cut short is committed, as serial evaluation commits the one in
// flight, and the deme halts at its next miss. Later candidates of the
// cohort are evaluated but never committed.
func TestBatchCutShortHaltsAtNextMiss(t *testing.T) {
	spec := NewTileSpec([]int64{64, 64, 64})
	var calls atomic.Int64
	obj := countingObjective(&calls)
	const cut = 40 // the eleventh fresh candidate of generation 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := PaperConfig(5)
	cfg.Batch = func(int) BatchEvaluator { return &cutBatch{obj: obj, cut: cut, cancel: cancel} }
	res, err := Run(ctx, spec, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StopCancelled || res.Evaluations != cut+1 || res.Generations != 0 {
		t.Fatalf("stopped %v after %d evaluations and %d generations, want cancelled after %d and 0",
			res.Stopped, res.Evaluations, res.Generations, cut+1)
	}
}
