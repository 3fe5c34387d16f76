package cliutil

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ga"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

func testCheckpoint(gen int) *ga.Checkpoint {
	return &ga.Checkpoint{
		Version:  1,
		Label:    "tiling",
		SpecBits: 2,
		Gen:      gen,
		Evals:    gen * 3,
		RNG:      []byte{1, 2, 3, 4},
		Pop:      [][]byte{{0, 1}},
		Memo:     []ga.MemoEntry{{Bits: []byte{0, 1}, Value: float64(gen)}},
		Best:     []int64{4},
		History:  []ga.GenStats{{Gen: gen}},
	}
}

// noSleep makes retried tests instant.
func noSleep(context.Context, time.Duration) error { return nil }

func swapRetry(t *testing.T, p retry.Policy) {
	t.Helper()
	old := checkpointRetry
	checkpointRetry = p
	t.Cleanup(func() { checkpointRetry = old })
}

func TestSaveCheckpointRotatesPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := SaveCheckpoint(context.Background(), path, testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	// No previous yet: first save must not create a .prev.
	if _, err := os.Stat(PrevCheckpoint(path)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("first save created %s: %v", PrevCheckpoint(path), err)
	}
	if err := SaveCheckpoint(context.Background(), path, testCheckpoint(2)); err != nil {
		t.Fatal(err)
	}
	cur, recovered, err := LoadCheckpoint(path, nil)
	if err != nil || recovered {
		t.Fatalf("load primary: %v recovered=%v", err, recovered)
	}
	if cur.Gen != 2 {
		t.Fatalf("primary gen = %d, want 2", cur.Gen)
	}
	prev, err := loadCheckpointFile(PrevCheckpoint(path))
	if err != nil {
		t.Fatalf("rotated copy unreadable: %v", err)
	}
	if prev.Gen != 1 {
		t.Fatalf("rotated gen = %d, want 1", prev.Gen)
	}
}

func TestLoadCheckpointFallsBackToRotated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := SaveCheckpoint(context.Background(), path, testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(context.Background(), path, testCheckpoint(2)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the primary: truncation defeats both JSON decode and sum.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	var cap telemetry.Capture
	c, recovered, err := LoadCheckpoint(path, &cap)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if !recovered || c.Gen != 1 {
		t.Fatalf("recovered=%v gen=%d, want true/1", recovered, c.Gen)
	}
	evs := cap.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %v, want one CheckpointRecovered", evs)
	}
	rec, ok := evs[0].(telemetry.CheckpointRecovered)
	if !ok || rec.Path != path || rec.Cause == "" {
		t.Fatalf("event = %#v", evs[0])
	}

	// Both copies gone/corrupt: the primary's error is reported.
	if err := os.Remove(PrevCheckpoint(path)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(path, &cap); err == nil {
		t.Fatal("load with both copies unusable succeeded")
	}
}

func TestLoadCheckpointMissingBoth(t *testing.T) {
	if _, _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "none.ckpt"), nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

// TestSaveCheckpointRetriesTransientFault: an injected checkpoint-write
// fault that fires once is absorbed by the retry loop — the caller sees
// success and the snapshot is on disk, even though the context carrying
// the plan was cancelled (a stopped search still writes its snapshot).
func TestSaveCheckpointRetriesTransientFault(t *testing.T) {
	swapRetry(t, retry.Policy{Attempts: 3, Sleep: noSleep})
	plan := faultinject.New(1, faultinject.Rule{Point: faultinject.CheckpointWrite, Times: 1})
	ctx, cancel := context.WithCancel(faultinject.With(context.Background(), plan))
	cancel()

	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := SaveCheckpoint(ctx, path, testCheckpoint(1)); err != nil {
		t.Fatalf("transient fault not absorbed: %v", err)
	}
	if c, _, err := LoadCheckpoint(path, nil); err != nil || c.Gen != 1 {
		t.Fatalf("snapshot after retry: %v, %v", c, err)
	}
	if hits, fired := plan.Counts(faultinject.CheckpointWrite); hits < 2 || fired != 1 {
		t.Fatalf("plan counts = %d/%d, want >=2 hits and 1 fired", hits, fired)
	}
}

// TestSaveCheckpointPersistentFaultReported: a fault on every attempt
// exhausts the retries and surfaces as an injected-fault error, with the
// previous snapshot left untouched.
func TestSaveCheckpointPersistentFaultReported(t *testing.T) {
	swapRetry(t, retry.Policy{Attempts: 3, Sleep: noSleep})
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := SaveCheckpoint(context.Background(), path, testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	ctx := faultinject.With(context.Background(), faultinject.New(1, faultinject.Rule{Point: faultinject.CheckpointWrite}))

	err := SaveCheckpoint(ctx, path, testCheckpoint(2))
	if err == nil || !faultinject.Is(err) {
		t.Fatalf("err = %v, want wrapped *Fault", err)
	}
	// The failed save never rotated or replaced the good snapshot.
	if c, recovered, lerr := LoadCheckpoint(path, nil); lerr != nil || recovered || c.Gen != 1 {
		t.Fatalf("previous snapshot disturbed: %v recovered=%v err=%v", c, recovered, lerr)
	}
}

// TestAtExitConcurrentExitRunsCleanupsOnce: racing Fatal/Exit calls split
// the cleanup list between them; no cleanup runs twice.
func TestAtExitConcurrentExitRunsCleanupsOnce(t *testing.T) {
	oldExit := osExit
	exited := make(chan int, 8)
	osExit = func(code int) { exited <- code }
	t.Cleanup(func() { osExit = oldExit; runAtExit() })

	var mu sync.Mutex
	counts := make(map[int]int)
	const n = 32
	for i := 0; i < n; i++ {
		i := i
		AtExit(func() {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Exit(ExitErr)
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(counts) != n {
		t.Fatalf("%d cleanups ran, want %d", len(counts), n)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("cleanup %d ran %d times", i, c)
		}
	}
}

// TestAtExitIdempotentAcrossSequentialExits: a second Exit finds an empty
// registry and runs nothing again.
func TestAtExitIdempotentAcrossSequentialExits(t *testing.T) {
	oldExit := osExit
	osExit = func(int) {}
	t.Cleanup(func() { osExit = oldExit; runAtExit() })

	runs := 0
	AtExit(func() { runs++ })
	Exit(ExitOK)
	Exit(ExitOK)
	if runs != 1 {
		t.Fatalf("cleanup ran %d times", runs)
	}
}
