package cmetiling_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	cmetiling "repro"
)

// captureRec is a minimal facade-side Recorder buffering events for
// assertions.
type captureRec struct {
	mu     sync.Mutex
	events []cmetiling.Event
}

func (c *captureRec) Event(e cmetiling.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *captureRec) Add(cmetiling.Counters) {}

func (c *captureRec) all() []cmetiling.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]cmetiling.Event(nil), c.events...)
}

// chaosSpec arms every fault class the acceptance bar names: one
// evaluation panic, one transient checkpoint-write failure, and two
// sink I/O errors (back-to-back, so the JSONL retry has to absorb both).
const chaosSpec = "seed=11;eval.panic:after=3,times=1;checkpoint.write:after=2,times=1;sink.write:after=4,times=2"

// chaosRun is one full search under the scripted fault plan: quarantine
// policy, durable checkpoints in dir, JSONL trace through a faulty writer.
type chaosRun struct {
	res      *cmetiling.TilingResult
	trace    []byte
	ckpt     []byte // primary snapshot bytes
	prevCkpt []byte // rotated previous-good snapshot bytes
}

func runChaos(t *testing.T, dir string) chaosRun {
	t.Helper()
	plan, err := cmetiling.ParseFaultSpec(chaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := cmetiling.GetKernel("MM")
	if !ok {
		t.Fatal("MM missing from catalog")
	}
	nest, err := k.Instance(40)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	sink := cmetiling.NewJSONLSink(cmetiling.FaultWriter(&trace, plan, cmetiling.FaultSinkWrite))
	path := filepath.Join(dir, "chaos.ckpt")
	ctx := cmetiling.WithFaults(context.Background(), plan)
	opt := cmetiling.Options{
		Cache: cmetiling.DM8K, Seed: 3, SamplePoints: 64, Workers: 1,
		FailurePolicy: cmetiling.FailQuarantine,
		Observer:      sink,
		Checkpoint: func(c *cmetiling.Checkpoint) error {
			return cmetiling.SaveCheckpointFile(ctx, path, c)
		},
	}
	res, err := cmetiling.OptimizeTiling(ctx, nest, opt)
	if err != nil {
		t.Fatalf("chaos run failed instead of degrading: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("trace sink did not absorb the transient sink faults: %v", err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("primary checkpoint missing after chaos run: %v", err)
	}
	prev, err := os.ReadFile(cmetiling.PrevCheckpointFile(path))
	if err != nil {
		t.Fatalf("rotated checkpoint missing after chaos run: %v", err)
	}
	return chaosRun{res: res, trace: trace.Bytes(), ckpt: ckpt, prevCkpt: prev}
}

// TestChaosSearchCompletesDegraded: a search under the full scripted
// fault plan completes with a valid best-so-far tile, the broken
// candidate quarantined, an intact JSONL trace, and a loadable
// checkpoint chain.
func TestChaosSearchCompletesDegraded(t *testing.T) {
	run := runChaos(t, t.TempDir())

	if len(run.res.Tile) != 3 {
		t.Fatalf("degraded run has no valid tile: %+v", run.res.Tile)
	}
	if run.res.GA.Generations == 0 || run.res.GA.Evaluations == 0 {
		t.Fatalf("degraded run reports no work: %+v", run.res.GA)
	}
	if len(run.res.Quarantined) == 0 {
		t.Fatal("injected eval panic left no quarantine entry")
	}
	q := run.res.Quarantined[0]
	if q.Phase != "tiling" || !strings.Contains(q.Reason, "panic") {
		t.Fatalf("quarantine entry = %+v", q)
	}

	// The quarantine event must appear on the trace, and every line must
	// have survived the injected sink faults intact.
	trace := string(run.trace)
	if !strings.Contains(trace, `"ev":"evaluation_quarantined"`) {
		t.Fatalf("trace lacks the quarantine event:\n%s", trace)
	}
	for i, line := range strings.Split(strings.TrimRight(trace, "\n"), "\n") {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("trace line %d torn despite retries: %q", i, line)
		}
	}

	// Both snapshots of the rotation chain must read back and verify.
	c, err := cmetiling.ReadCheckpoint(bytes.NewReader(run.ckpt))
	if err != nil {
		t.Fatalf("primary checkpoint unreadable: %v", err)
	}
	p, err := cmetiling.ReadCheckpoint(bytes.NewReader(run.prevCkpt))
	if err != nil {
		t.Fatalf("rotated checkpoint unreadable: %v", err)
	}
	if c.Gen <= p.Gen {
		t.Fatalf("rotation order broken: primary gen %d, previous gen %d", c.Gen, p.Gen)
	}
}

// TestChaosDeterministicAcrossRuns: two searches with the same seed and
// freshly built identical fault plans are bit-identical — same tile,
// same GA trace, same quarantine list, same checkpoint bytes, same
// JSONL trace. Faults fire in the serial evaluation section, so
// scheduling cannot move them between runs.
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	a := runChaos(t, t.TempDir())
	b := runChaos(t, t.TempDir())

	if a.res.Tile[0] != b.res.Tile[0] || a.res.Tile[1] != b.res.Tile[1] || a.res.Tile[2] != b.res.Tile[2] {
		t.Fatalf("tiles diverged: %v vs %v", a.res.Tile, b.res.Tile)
	}
	if a.res.GA.BestValue != b.res.GA.BestValue || a.res.GA.Evaluations != b.res.GA.Evaluations ||
		a.res.GA.Generations != b.res.GA.Generations {
		t.Fatalf("GA traces diverged: %+v vs %+v", a.res.GA, b.res.GA)
	}
	if len(a.res.Quarantined) != len(b.res.Quarantined) {
		t.Fatalf("quarantine lists diverged: %v vs %v", a.res.Quarantined, b.res.Quarantined)
	}
	for i := range a.res.Quarantined {
		qa, qb := a.res.Quarantined[i], b.res.Quarantined[i]
		if qa.Reason != qb.Reason || qa.Phase != qb.Phase || len(qa.Values) != len(qb.Values) {
			t.Fatalf("quarantine %d diverged: %+v vs %+v", i, qa, qb)
		}
	}
	if !bytes.Equal(a.ckpt, b.ckpt) || !bytes.Equal(a.prevCkpt, b.prevCkpt) {
		t.Fatal("checkpoint bytes diverged between identical chaos runs")
	}
	if !bytes.Equal(a.trace, b.trace) {
		t.Fatalf("JSONL traces diverged:\n--- a\n%s\n--- b\n%s", a.trace, b.trace)
	}
}

// TestChaosResumeFromDegradedCheckpoint: the checkpoint chain a chaos
// run leaves behind is not just readable — a clean follow-up search can
// resume from it and converge.
func TestChaosResumeFromDegradedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	run := runChaos(t, t.TempDir())
	path := filepath.Join(dir, "resume.ckpt")
	if err := os.WriteFile(path, run.ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	c, recovered, err := cmetiling.LoadCheckpointFile(path, nil)
	if err != nil {
		t.Fatalf("chaos checkpoint not loadable: %v", err)
	}
	if recovered {
		t.Fatal("primary was valid; loader should not have fallen back")
	}
	k, _ := cmetiling.GetKernel("MM")
	nest, err := k.Instance(40)
	if err != nil {
		t.Fatal(err)
	}
	opt := cmetiling.Options{
		Cache: cmetiling.DM8K, Seed: 3, SamplePoints: 64, Workers: 1,
		ResumeFrom: c,
	}
	res, err := cmetiling.OptimizeTiling(context.Background(), nest, opt)
	if err != nil {
		t.Fatalf("resume from chaos checkpoint failed: %v", err)
	}
	if res.Stopped != cmetiling.StopConverged || len(res.Tile) != 3 {
		t.Fatalf("resumed search did not converge: stopped=%v tile=%v", res.Stopped, res.Tile)
	}
}
