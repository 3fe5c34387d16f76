package cmetiling_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	cmetiling "repro"
)

// ckptFixture runs a short search through the facade and returns a real
// converged checkpoint plus the nest it belongs to.
func ckptFixture(t *testing.T) (*cmetiling.Checkpoint, *cmetiling.Nest) {
	t.Helper()
	k, ok := cmetiling.GetKernel("MM")
	if !ok {
		t.Fatal("MM missing from catalog")
	}
	nest, err := k.Instance(40)
	if err != nil {
		t.Fatal(err)
	}
	var ckpt *cmetiling.Checkpoint
	opt := cmetiling.Options{
		Cache: cmetiling.DM8K, Seed: 3, SamplePoints: 64,
		Checkpoint: func(c *cmetiling.Checkpoint) error { ckpt = c; return nil },
	}
	if _, err := cmetiling.OptimizeTiling(context.Background(), nest, opt); err != nil {
		t.Fatal(err)
	}
	if ckpt == nil {
		t.Fatal("search produced no checkpoint")
	}
	return ckpt, nest
}

func ckptBytes(t *testing.T, c *cmetiling.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cmetiling.WriteCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stripSum removes the integrity sum so deliberate field edits exercise
// the semantic resume checks instead of tripping the checksum first.
func stripSum(t *testing.T, b []byte, edit func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "sum")
	if edit != nil {
		edit(m)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCorruptionTruncatedRejected: a snapshot cut off mid-write does not
// parse, and the error is not silently swallowed into a fresh search.
func TestCorruptionTruncatedRejected(t *testing.T) {
	c, _ := ckptFixture(t)
	b := ckptBytes(t, c)
	if _, err := cmetiling.ReadCheckpoint(bytes.NewReader(b[:len(b)/2])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestCorruptionBitFlipCaughtByChecksum: a single flipped digit leaves
// the JSON perfectly parseable — only the SHA-256 integrity sum catches
// it.
func TestCorruptionBitFlipCaughtByChecksum(t *testing.T) {
	c, _ := ckptFixture(t)
	b := ckptBytes(t, c)
	re := regexp.MustCompile(`"evals": (\d)`)
	m := re.FindSubmatch(b)
	if m == nil {
		t.Fatalf("no evals field in checkpoint:\n%s", b)
	}
	flipped := byte('2')
	if m[1][0] == '2' {
		flipped = '3'
	}
	mut := re.ReplaceAll(b, []byte(`"evals": `+string(flipped)))
	if bytes.Equal(mut, b) {
		t.Fatal("mutation was a no-op")
	}
	_, err := cmetiling.ReadCheckpoint(bytes.NewReader(mut))
	if err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("bit flip not caught by checksum: %v", err)
	}
}

// TestCorruptionVersionMismatchRejected: a snapshot from a future layout
// version fails resume with a version error, not garbage state.
func TestCorruptionVersionMismatchRejected(t *testing.T) {
	c, nest := ckptFixture(t)
	mut := stripSum(t, ckptBytes(t, c), func(m map[string]any) { m["version"] = 99 })
	got, err := cmetiling.ReadCheckpoint(bytes.NewReader(mut))
	if err != nil {
		t.Fatalf("read should defer version checks to resume: %v", err)
	}
	opt := cmetiling.Options{Cache: cmetiling.DM8K, Seed: 3, SamplePoints: 64, ResumeFrom: got}
	if _, err := cmetiling.OptimizeTiling(context.Background(), nest, opt); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not rejected: %v", err)
	}
}

// TestCorruptionLabelMismatchRejected: a tiling search refuses to resume
// from another phase's snapshot.
func TestCorruptionLabelMismatchRejected(t *testing.T) {
	c, nest := ckptFixture(t)
	mut := stripSum(t, ckptBytes(t, c), func(m map[string]any) { m["label"] = "padding" })
	got, err := cmetiling.ReadCheckpoint(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	opt := cmetiling.Options{Cache: cmetiling.DM8K, Seed: 3, SamplePoints: 64, ResumeFrom: got}
	if _, err := cmetiling.OptimizeTiling(context.Background(), nest, opt); err == nil ||
		!strings.Contains(err.Error(), "label") {
		t.Fatalf("label mismatch not rejected: %v", err)
	}
}

// TestCorruptionSumlessLegacyAccepted: snapshots written before the
// integrity sum existed still load.
func TestCorruptionSumlessLegacyAccepted(t *testing.T) {
	c, _ := ckptFixture(t)
	mut := stripSum(t, ckptBytes(t, c), nil)
	got, err := cmetiling.ReadCheckpoint(bytes.NewReader(mut))
	if err != nil {
		t.Fatalf("legacy sum-less checkpoint rejected: %v", err)
	}
	if got.Gen != c.Gen {
		t.Fatalf("legacy read mangled state: gen %d vs %d", got.Gen, c.Gen)
	}
}

// islandCkptFixture runs a short 2-island search, capturing every barrier
// snapshot through its serialised round trip, and returns the snapshots,
// the uninterrupted result and the nest.
func islandCkptFixture(t *testing.T) ([]*cmetiling.Checkpoint, *cmetiling.TilingResult, *cmetiling.Nest) {
	t.Helper()
	k, ok := cmetiling.GetKernel("MM")
	if !ok {
		t.Fatal("MM missing from catalog")
	}
	nest, err := k.Instance(40)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*cmetiling.Checkpoint
	opt := cmetiling.Options{
		Cache: cmetiling.DM8K, Seed: 3, SamplePoints: 64, Islands: 2,
		Checkpoint: func(c *cmetiling.Checkpoint) error {
			var buf bytes.Buffer
			if err := cmetiling.WriteCheckpoint(&buf, c); err != nil {
				return err
			}
			cp, err := cmetiling.ReadCheckpoint(&buf)
			if err != nil {
				return err
			}
			snaps = append(snaps, cp)
			return nil
		},
	}
	res, err := cmetiling.OptimizeTiling(context.Background(), nest, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("island search produced no checkpoints")
	}
	return snaps, res, nest
}

// TestIslandCheckpointResumeReplaysExactly: resuming a 2-island search
// from a mid-run barrier snapshot — including one taken between migration
// rounds — reproduces the uninterrupted search bit-for-bit.
func TestIslandCheckpointResumeReplaysExactly(t *testing.T) {
	snaps, want, nest := islandCkptFixture(t)
	for _, i := range []int{0, len(snaps) / 2, len(snaps) - 1} {
		opt := cmetiling.Options{
			Cache: cmetiling.DM8K, Seed: 3, SamplePoints: 64, Islands: 2,
			ResumeFrom: snaps[i],
		}
		got, err := cmetiling.OptimizeTiling(context.Background(), nest, opt)
		if err != nil {
			t.Fatalf("resume from snapshot %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Tile, want.Tile) || !reflect.DeepEqual(got.GA, want.GA) {
			t.Fatalf("resume from snapshot %d diverged:\ntile %v vs %v\nGA %+v vs %+v",
				i, got.Tile, want.Tile, got.GA, want.GA)
		}
	}
}

// TestCorruptionIslandCountMismatchRejected: a 2-island snapshot refuses
// to resume a search configured for a different island count, and refuses
// the single-population path entirely (version mismatch).
func TestCorruptionIslandCountMismatchRejected(t *testing.T) {
	snaps, _, nest := islandCkptFixture(t)
	snap := snaps[len(snaps)-1]
	opt := cmetiling.Options{
		Cache: cmetiling.DM8K, Seed: 3, SamplePoints: 64, Islands: 3,
		ResumeFrom: snap,
	}
	if _, err := cmetiling.OptimizeTiling(context.Background(), nest, opt); err == nil ||
		!strings.Contains(err.Error(), "islands") {
		t.Fatalf("island-count mismatch not rejected: %v", err)
	}
	opt.Islands = 0
	if _, err := cmetiling.OptimizeTiling(context.Background(), nest, opt); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("single-population resume of v2 snapshot not rejected: %v", err)
	}
}

// TestCorruptionIslandPayloadBitFlipCaught: the integrity sum covers the
// per-island payload of a version-2 snapshot too.
func TestCorruptionIslandPayloadBitFlipCaught(t *testing.T) {
	snaps, _, _ := islandCkptFixture(t)
	b := ckptBytes(t, snaps[len(snaps)-1])
	re := regexp.MustCompile(`"best_value": (\d)`)
	m := re.FindSubmatch(b)
	if m == nil {
		t.Fatalf("no best_value field in island checkpoint:\n%.200s", b)
	}
	flipped := byte('2')
	if m[1][0] == '2' {
		flipped = '3'
	}
	mut := re.ReplaceAll(b, []byte(`"best_value": `+string(flipped)))
	if bytes.Equal(mut, b) {
		t.Fatal("mutation was a no-op")
	}
	if _, err := cmetiling.ReadCheckpoint(bytes.NewReader(mut)); err == nil ||
		!strings.Contains(err.Error(), "integrity") {
		t.Fatalf("island payload bit flip not caught: %v", err)
	}
}

// TestCorruptionFallbackToRotatedAndResume: with a corrupted primary on
// disk, LoadCheckpointFile falls back to the rotated previous-good copy,
// reports the recovery, and the recovered snapshot resumes to
// convergence.
func TestCorruptionFallbackToRotatedAndResume(t *testing.T) {
	c, nest := ckptFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	older := *c
	older.Gen-- // pretend the rotated copy is one generation behind
	older.Sum = ""
	if err := cmetiling.SaveCheckpointFile(context.Background(), path, &older); err != nil {
		t.Fatal(err)
	}
	if err := cmetiling.SaveCheckpointFile(context.Background(), path, c); err != nil {
		t.Fatal(err)
	}
	// Corrupt the primary the way a torn write would: truncate it.
	if err := os.Truncate(path, 64); err != nil {
		t.Fatal(err)
	}

	var cap captureRec
	got, recovered, err := cmetiling.LoadCheckpointFile(path, &cap)
	if err != nil {
		t.Fatalf("fallback load failed: %v", err)
	}
	if !recovered || got.Gen != older.Gen {
		t.Fatalf("recovered=%v gen=%d, want fallback to gen %d", recovered, got.Gen, older.Gen)
	}
	found := false
	for _, e := range cap.all() {
		if rec, ok := e.(cmetiling.CheckpointRecoveredEvent); ok {
			found = true
			if rec.Path != path || rec.Cause == "" {
				t.Fatalf("recovery event = %+v", rec)
			}
		}
	}
	if !found {
		t.Fatal("fallback emitted no CheckpointRecoveredEvent")
	}

	opt := cmetiling.Options{Cache: cmetiling.DM8K, Seed: 3, SamplePoints: 64, ResumeFrom: got}
	res, err := cmetiling.OptimizeTiling(context.Background(), nest, opt)
	if err != nil {
		t.Fatalf("resume from recovered checkpoint failed: %v", err)
	}
	if res.Stopped != cmetiling.StopConverged {
		t.Fatalf("resumed search did not converge: %v", res.Stopped)
	}
}
