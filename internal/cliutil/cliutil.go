// Package cliutil holds the small helpers shared by the command line
// tools: cache-geometry and tile-vector parsers, a single exit path that
// flushes buffered output and runs registered cleanups, checkpoint-file
// persistence, and CPU-profile setup.
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/faultinject"
	"repro/internal/ga"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

// Process exit codes shared by the command line tools. Degraded means the
// run completed and produced a usable result, but only by tolerating
// faults (quarantined evaluations, a checkpoint save that fell back, or a
// resume from the rotated previous-good snapshot); scripts that need
// strictly clean runs can distinguish it from full success.
const (
	ExitOK          = 0
	ExitErr         = 1
	ExitUsage       = 2
	ExitDegraded    = 3
	ExitInterrupted = 130
)

// ParseCache parses "8k", "32k" (the paper's two configurations) or a
// generic "size:line:assoc" byte spec.
func ParseCache(s string) (cache.Config, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "8k":
		return cache.DM8K, nil
	case "32k":
		return cache.DM32K, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) == 3 {
		size, err1 := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		line, err2 := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		assoc, err3 := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err1 == nil && err2 == nil && err3 == nil {
			cfg := cache.Config{Size: size, LineSize: line, Assoc: assoc}
			if err := cfg.Validate(); err != nil {
				return cache.Config{}, err
			}
			return cfg, nil
		}
	}
	return cache.Config{}, fmt.Errorf("bad cache %q (want 8k, 32k, or size:line:assoc)", s)
}

// ParseTile parses a comma-separated tile vector of the given rank.
func ParseTile(s string, depth int) ([]int64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != depth {
		return nil, fmt.Errorf("tile %q has %d entries for a depth-%d nest", s, len(parts), depth)
	}
	tile := make([]int64, depth)
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad tile entry %q", p)
		}
		tile[i] = v
	}
	return tile, nil
}

// readBuildInfo is swapped out by tests.
var readBuildInfo = debug.ReadBuildInfo

// VersionString renders the tool's build identity from the build info the
// Go linker embeds in every binary: module path and version, the Go
// toolchain, and — when the build ran inside a VCS checkout — the revision,
// its commit time, and whether the tree was dirty.
func VersionString(tool string) string {
	bi, ok := readBuildInfo()
	if !ok {
		return tool + " (no build info)"
	}
	var b strings.Builder
	version := bi.Main.Version
	if version == "" {
		version = "(devel)"
	}
	fmt.Fprintf(&b, "%s %s %s", tool, bi.Main.Path, version)
	if bi.GoVersion != "" {
		fmt.Fprintf(&b, " %s", bi.GoVersion)
	}
	var rev, at, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.time":
			at = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(&b, " rev %s", rev)
		if modified == "true" {
			b.WriteString("+dirty")
		}
		if at != "" {
			fmt.Fprintf(&b, " (%s)", at)
		}
	}
	return b.String()
}

// VersionFlag registers the shared -version flag on the default flag set.
// Call before flag.Parse; after parsing, pass the returned pointer to
// HandleVersion.
func VersionFlag() *bool {
	return flag.Bool("version", false, "print build information and exit")
}

// HandleVersion prints the tool's VersionString and exits cleanly when the
// -version flag was given; otherwise it is a no-op. Call right after
// flag.Parse.
func HandleVersion(tool string, requested *bool) {
	if requested != nil && *requested {
		fmt.Println(VersionString(tool))
		Exit(ExitOK)
	}
}

// osExit is swapped out by tests.
var osExit = os.Exit

// atExit holds the cleanups Exit runs before terminating. Exit calls
// os.Exit, so ordinary defers never fire in the tools; anything that must
// flush on the way out (telemetry sinks, CPU profiles) registers here.
// The registry is mutex-guarded: Fatal can race with itself (a signal
// handler and a failing main loop exiting together), and each cleanup
// must still run at most once.
var (
	atExitMu sync.Mutex
	atExit   []func()
)

// AtExit registers fn to run when Exit (or Fatal) terminates the process.
// Functions run in reverse registration order, each at most once, even
// when Exit is reached concurrently from several goroutines.
func AtExit(fn func()) {
	atExitMu.Lock()
	atExit = append(atExit, fn)
	atExitMu.Unlock()
}

// runAtExit drains the registered cleanups, LIFO. Each function is popped
// under the lock before it runs, so two racing Exit calls split the list
// between them rather than both running every cleanup.
func runAtExit() {
	for {
		atExitMu.Lock()
		n := len(atExit)
		if n == 0 {
			atExitMu.Unlock()
			return
		}
		fn := atExit[n-1]
		atExit = atExit[:n-1]
		atExitMu.Unlock()
		fn()
	}
}

// Exit is the single exit path for the command line tools: it runs the
// AtExit cleanups, then flushes stdout and stderr (best-effort; pipes and
// terminals report ENOTTY/EINVAL on Sync, which is fine) so a bounded or
// interrupted run never loses its partially written report, then
// terminates with the given code.
func Exit(code int) {
	runAtExit()
	_ = os.Stdout.Sync()
	_ = os.Stderr.Sync()
	osExit(code)
}

// StartCPUProfile begins a CPU profile written to path and registers its
// stop via AtExit, so the profile survives both normal exits and Fatal.
func StartCPUProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	AtExit(func() {
		pprof.StopCPUProfile()
		f.Close()
	})
	return nil
}

// Fatal reports err on stderr prefixed with the tool name and exits
// ExitErr through Exit. Safe to call concurrently (e.g. from a signal
// handler racing a failing main loop): the AtExit cleanups still run at
// most once between the racing calls.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	Exit(ExitErr)
}

// checkpointRetry bounds the retries SaveCheckpoint spends absorbing
// transient write failures; tests swap in a fake clock.
var checkpointRetry = retry.Policy{}

// PrevCheckpoint returns the rotated previous-good path for a checkpoint
// file ("<path>.prev").
func PrevCheckpoint(path string) string { return path + ".prev" }

// SaveCheckpoint durably writes a search snapshot to path:
//
//  1. the snapshot is written to a temporary file in the same directory
//     and fsynced, so the bytes are on stable storage before any rename;
//  2. the existing checkpoint (if any) is rotated to "<path>.prev",
//     keeping one previous-good generation recoverable;
//  3. the temporary file is renamed over path and the directory entry is
//     synced (best-effort — not every filesystem supports it).
//
// A crash at any point leaves either the old snapshot at path or a
// complete new one, never a truncated file; at worst path is briefly
// missing while "<path>.prev" holds the previous generation, which
// LoadCheckpoint falls back to. Transient failures are retried with
// capped exponential backoff before the error is reported.
//
// ctx only carries the fault plan (faultinject.With) whose
// checkpoint.write point each attempt fires; the write and its retries
// run to completion even when ctx is cancelled, so a search stopped by
// its deadline or a signal still gets its last snapshot on disk.
func SaveCheckpoint(ctx context.Context, path string, c *ga.Checkpoint) error {
	plan := faultinject.From(ctx)
	return checkpointRetry.Do(context.Background(), func() error {
		if err := plan.Fire(context.Background(), faultinject.CheckpointWrite); err != nil {
			return err
		}
		return saveCheckpointOnce(path, c)
	})
}

// saveCheckpointOnce is one durable write attempt.
func saveCheckpointOnce(path string, c *ga.Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := ga.WriteCheckpoint(tmp, c); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// Rotate only after the replacement is safely on disk, so a failed
	// write never disturbs the current snapshot.
	if err := os.Rename(path, PrevCheckpoint(path)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// CheckpointLoadError is the typed error LoadCheckpoint returns when
// neither the primary snapshot nor its rotated previous-good copy is
// usable. It keeps both underlying errors so callers (and operators
// reading logs) can tell a doubly-corrupt state from a doubly-failed
// read; errors.Is/As see through to both via Unwrap.
type CheckpointLoadError struct {
	// Path is the primary checkpoint path.
	Path string
	// Primary and Previous are the load failures of path and
	// PrevCheckpoint(path) respectively.
	Primary  error
	Previous error
}

// Error implements error.
func (e *CheckpointLoadError) Error() string {
	return fmt.Sprintf("checkpoint %s: no usable snapshot: primary (%s): %v; previous (%s): %v",
		e.Path, ClassifyCheckpointError(e.Primary), e.Primary,
		ClassifyCheckpointError(e.Previous), e.Previous)
}

// Unwrap exposes both underlying errors to errors.Is/As.
func (e *CheckpointLoadError) Unwrap() []error { return []error{e.Primary, e.Previous} }

// ClassifyCheckpointError maps a checkpoint load failure onto the cause
// class reported in CheckpointRecovered telemetry: "missing" (the file
// does not exist), "corrupt" (the bytes were read but failed decoding or
// the integrity sum), or "io" (the read itself failed). Returns "" for a
// nil error.
func ClassifyCheckpointError(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, fs.ErrNotExist):
		return "missing"
	case errors.Is(err, ga.ErrCheckpointCorrupt):
		return "corrupt"
	default:
		return "io"
	}
}

// LoadCheckpoint reads a snapshot previously written by SaveCheckpoint,
// falling back to the rotated previous-good copy ("<path>.prev") when the
// primary is missing, truncated or fails its integrity sum. recovered
// reports that the fallback was used — the caller resumed one generation
// behind — and the event is also recorded on obs (which may be nil) with
// the primary's failure classified (missing, corrupt, or io) so the
// telemetry trail says *why* the primary was rejected. When both copies
// fail, the returned error is a *CheckpointLoadError carrying both causes.
func LoadCheckpoint(path string, obs telemetry.Recorder) (c *ga.Checkpoint, recovered bool, err error) {
	c, err = loadCheckpointFile(path)
	if err == nil {
		return c, false, nil
	}
	prev, perr := loadCheckpointFile(PrevCheckpoint(path))
	if perr != nil {
		return nil, false, &CheckpointLoadError{Path: path, Primary: err, Previous: perr}
	}
	if obs != nil {
		obs.Event(telemetry.CheckpointRecovered{
			Path: path, Cause: err.Error(), Class: ClassifyCheckpointError(err),
		})
	}
	return prev, true, nil
}

// loadCheckpointFile reads and verifies one snapshot file.
func loadCheckpointFile(path string) (*ga.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ga.ReadCheckpoint(f)
}
