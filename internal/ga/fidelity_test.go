package ga

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestFidelitySchedule: the rung schedule is a pure function of the rung
// count and the sample size — ascending cumulative prefixes halving per
// rung, floored at 16 points, capped and terminated at the full sample,
// duplicates collapsed.
func TestFidelitySchedule(t *testing.T) {
	cases := []struct {
		name string
		f    Fidelity
		n    int
		want []int
	}{
		{"off", Fidelity{}, 164, []int{164}},
		{"one rung", Fidelity{Rungs: 1}, 164, []int{164}},
		{"paper sample eta2", Fidelity{Rungs: 3}, 164, []int{41, 82, 164}},
		{"floor collapses small sample", Fidelity{Rungs: 3}, 8, []int{8}},
		{"deep ladder dedups", Fidelity{Rungs: 6}, 64, []int{16, 32, 64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.f.Schedule(tc.n)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Schedule(%d) = %v, want %v", tc.n, got, tc.want)
			}
			if got[len(got)-1] != tc.n {
				t.Fatalf("schedule does not end at the full sample: %v", got)
			}
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("schedule not strictly ascending: %v", got)
				}
			}
		})
	}
}

// TestFidelityValidate: a negative rung count is rejected, the zero value
// and sensible ladders pass.
func TestFidelityValidate(t *testing.T) {
	for _, f := range []Fidelity{{}, {Rungs: 1}, {Rungs: 3}} {
		if err := f.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", f, err)
		}
	}
	for _, f := range []Fidelity{{Rungs: -1}, {Rungs: -7}} {
		if err := f.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid configuration", f)
		}
	}
}

// TestFidelityNeedsBatchAndPoints: the ladder scores rungs through the
// deme's batch evaluator over a sample of Points points, so a run missing
// either is refused before it starts.
func TestFidelityNeedsBatchAndPoints(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"no batch":  func(c *Config) { c.Points = fakePoints },
		"no points": func(c *Config) { c.Batch = rangeBatches },
	} {
		cfg := PaperConfig(1)
		cfg.Fidelity = Fidelity{Rungs: 3}
		mut(&cfg)
		if _, err := Run(context.Background(), sphereSpec(), sphereObj, cfg); err == nil {
			t.Errorf("%s: Run accepted a fidelity run", name)
		}
	}
}

// failBatch scores rangeCost, except that every candidate fails with
// QuarantineValue, and counts how often each candidate is dispatched.
type failBatch struct {
	rangeBatch
	dispatched int
}

func (b *failBatch) Evaluate(ctx context.Context, values [][]int64, r Rung) {
	b.dispatched += len(values)
	b.rangeBatch.Evaluate(ctx, values, r)
	for i := range b.values {
		b.values[i] = QuarantineValue
	}
}

// TestLadderLatchesFailuresAndExtrapolates: a lone fresh candidate that
// fails at rung 1 is still promoted (keep = 1), yet it is never
// dispatched again and keeps exactly QuarantineValue, unscaled. Every
// memo value of a clean run is some rung prefix's score extrapolated to
// the whole sample: score × Points / prefix.
func TestLadderLatchesFailuresAndExtrapolates(t *testing.T) {
	const points = 64 // rungs over [0,16), [16,32) and [32,64)
	spec := sphereSpec()
	cfg := PaperConfig(3)
	cfg.Fidelity, cfg.Points = Fidelity{Rungs: 3}, points
	b := &failBatch{}
	cfg.Batch = func(int) BatchEvaluator { return b }
	var cap telemetry.Capture
	cfg.Observer = &cap
	d := newDeme(spec, nil, cfg, 0, cfg.PopSize, 0, time.Now())
	batch := []individual{{bits: spec.Encode([]int64{5, 40, 17})}}
	if n, ok := d.evaluate(context.Background(), batch, true); n != 1 || !ok {
		t.Fatalf("evaluate assigned %d of 1 (complete %v)", n, ok)
	}
	if b.dispatched != 1 {
		t.Fatalf("the failed candidate was dispatched %d times, want once", b.dispatched)
	}
	if v := batch[0].value; v != QuarantineValue {
		t.Fatalf("the failed candidate recorded %v, want QuarantineValue", v)
	}
	var promoted []int
	for _, e := range cap.Events() {
		if r, ok := e.(telemetry.EvaluationRung); ok {
			promoted = append(promoted, r.Promoted)
		}
	}
	if !reflect.DeepEqual(promoted, []int{1, 1, 0}) {
		t.Fatalf("rungs promoted %v, want [1 1 0]: the lone candidate is kept to the last rung", promoted)
	}

	cfg = PaperConfig(3)
	cfg.Fidelity, cfg.Points, cfg.Batch = Fidelity{Rungs: 3}, points, rangeBatches
	var last *Checkpoint
	cfg.Checkpoint = func(c *Checkpoint) error { last = c; return nil }
	if _, err := Run(context.Background(), spec, nil, cfg); err != nil {
		t.Fatal(err)
	}
	sched := cfg.Fidelity.Schedule(points)
	for _, m := range last.Memo {
		v := spec.Decode(m.Bits)
		found := false
		for _, p := range sched {
			score := rangeCost(v, Rung{Hi: p})
			found = found || m.Value == score*float64(points)/float64(p)
		}
		if !found {
			t.Fatalf("memo value %v of %v is no rung prefix's extrapolated score (prefixes %v)", m.Value, v, sched)
		}
	}
	if len(last.Memo) == 0 {
		t.Fatal("the run memoised nothing")
	}
}
