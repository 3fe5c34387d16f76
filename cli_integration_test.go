package cmetiling_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles the four command-line tools once per test run.
func buildTools(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	tools := map[string]string{}
	for _, name := range []string{"tilegen", "cachesim", "cmereport", "experiments"} {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		tools[name] = bin
	}
	return tools
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func runExpectError(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v: expected failure, got:\n%s", filepath.Base(bin), args, out)
	}
	return string(out)
}

// TestCLIEndToEnd drives every binary through its main paths.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t)

	// tilegen: catalog listing and a small search.
	out := run(t, tools["tilegen"], "-list")
	for _, k := range []string{"MM", "VPENTA1", "DRADFG2"} {
		if !strings.Contains(out, k) {
			t.Fatalf("tilegen -list missing %s:\n%s", k, out)
		}
	}
	out = run(t, tools["tilegen"], "-kernel", "T2D", "-size", "100", "-cache", "8k", "-seed", "3")
	if !strings.Contains(out, "best tile") || !strings.Contains(out, "tiled nest") {
		t.Fatalf("tilegen output:\n%s", out)
	}
	runExpectError(t, tools["tilegen"], "-kernel", "NOPE")
	runExpectError(t, tools["tilegen"], "-cache", "9k")

	// tilegen -file over a shipped kernel description.
	out = run(t, tools["tilegen"], "-file", "kernels/conflict.loop", "-mode", "pad")
	if !strings.Contains(out, "best padding") {
		t.Fatalf("tilegen -file -mode pad output:\n%s", out)
	}

	// cachesim: exact simulation with per-reference breakdown.
	out = run(t, tools["cachesim"], "-kernel", "T2D", "-size", "64", "-tile", "8,8")
	if !strings.Contains(out, "per-reference breakdown") || !strings.Contains(out, "conflict misses") {
		t.Fatalf("cachesim output:\n%s", out)
	}
	runExpectError(t, tools["cachesim"], "-kernel", "T2D", "-size", "64", "-tile", "8")

	// cmereport: reuse vectors and equation counts.
	out = run(t, tools["cmereport"], "-kernel", "MM", "-size", "20", "-points", "64")
	if !strings.Contains(out, "reuse vectors") || !strings.Contains(out, "cache miss equations") {
		t.Fatalf("cmereport output:\n%s", out)
	}
	out = run(t, tools["cmereport"], "-kernel", "T2D", "-size", "20", "-tile", "4,4", "-points", "32")
	if !strings.Contains(out, "convex region") {
		t.Fatalf("cmereport tiled output:\n%s", out)
	}
	// §2.4's accounting: tiling 20×20 by 3×3 makes 4 convex regions, so
	// compulsory equations grow 4× and replacement equations 16×, and
	// -dump prints every one of them.
	out = run(t, tools["cmereport"], "-kernel", "T2D", "-size", "20", "-points", "32")
	if !strings.Contains(out, "1 convex region(s), 4 compulsory, 8 replacement") {
		t.Fatalf("cmereport untiled counts:\n%s", out)
	}
	out = run(t, tools["cmereport"], "-kernel", "T2D", "-size", "20", "-tile", "3,3", "-points", "32", "-dump")
	if !strings.Contains(out, "4 convex region(s), 16 compulsory, 128 replacement") {
		t.Fatalf("cmereport tiled counts:\n%s", out)
	}
	equations := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  compulsory ref") || strings.HasPrefix(line, "  replacement ref") {
			equations++
		}
	}
	if equations != 144 {
		t.Fatalf("cmereport -dump printed %d equations, want 144:\n%s", equations, out)
	}
	// Variables print by name: tile variables ii_i, ii_j, then i, j.
	named := "\n  compulsory ref0 (vec [1 0]) region 0: {ii_i-1 >= 0 && -ii_i+16 >= 0 && -ii_i+i >= 0 && " +
		"ii_i-i+2 >= 0 && ii_j-1 >= 0 && -ii_j+16 >= 0 && -ii_j+j >= 0 && ii_j-j+2 >= 0 && -i+1 >= 0}\n"
	if !strings.Contains(out, named) {
		t.Fatalf("cmereport -dump lacks the line%s:\n%s", named, out)
	}
	runExpectError(t, tools["cmereport"], "-kernel", "MM", "-size", "64", "-points", "-5")
	runExpectError(t, tools["cmereport"], "-kernel", "MM", "-size", "64", "-points", "0")
	runExpectError(t, tools["cmereport"], "-kernel", "MM", "-size", "64", "-workers", "-3")

	// experiments: quick Table 2 regeneration.
	out = run(t, tools["experiments"], "-table2", "-quick", "-quickcap", "64", "-points", "64")
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "JACOBI3D") {
		t.Fatalf("experiments output:\n%s", out)
	}
}

// TestCLITelemetryFlags drives the observability flags added with the
// telemetry subsystem: -trace-out (JSONL event stream), -metrics (expvar
// dump on stderr), -pprof (CPU profile), and -workers parity on the
// report/simulator tools.
func TestCLITelemetryFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	tools := buildTools(t)
	dir := t.TempDir()

	// tilegen -trace-out -metrics -pprof all at once.
	trace := filepath.Join(dir, "search.jsonl")
	profile := filepath.Join(dir, "cpu.pprof")
	out := run(t, tools["tilegen"], "-kernel", "T2D", "-size", "64", "-seed", "3",
		"-points", "64", "-trace-out", trace, "-metrics", "-pprof", profile)
	if !strings.Contains(out, "best tile") {
		t.Fatalf("tilegen output:\n%s", out)
	}
	// The expvar dump goes to stderr at exit (CombinedOutput captures it).
	if !strings.Contains(out, `"evaluations"`) || !strings.Contains(out, `"walk_steps"`) {
		t.Errorf("tilegen -metrics dump missing:\n%s", out)
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("trace file has %d lines:\n%s", len(lines), data)
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, `{"ev":"`) {
			t.Fatalf("trace line %d not a JSONL event: %s", i, line)
		}
	}
	if !strings.Contains(lines[0], `"ev":"search_start"`) {
		t.Errorf("trace does not open with search_start: %s", lines[0])
	}
	if !strings.Contains(lines[len(lines)-1], `"ev":"counters"`) {
		t.Errorf("trace does not close with counters: %s", lines[len(lines)-1])
	}

	if st, err := os.Stat(profile); err != nil {
		t.Errorf("pprof file: %v", err)
	} else if st.Size() == 0 {
		t.Error("pprof file is empty")
	}

	// -trace-out appends: a second run must extend, not truncate.
	run(t, tools["tilegen"], "-kernel", "T2D", "-size", "64", "-seed", "3",
		"-points", "64", "-trace-out", trace)
	data2, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(data2) <= len(data) || !strings.HasPrefix(string(data2), string(data)) {
		t.Error("-trace-out did not append to the existing file")
	}

	// experiments accepts the same flags.
	trace2 := filepath.Join(dir, "experiments.jsonl")
	out = run(t, tools["experiments"], "-sampling", "-quick", "-quickcap", "64",
		"-points", "64", "-trace-out", trace2, "-metrics")
	if !strings.Contains(out, "Sampling validation") {
		t.Fatalf("experiments output:\n%s", out)
	}
	if _, err := os.Stat(trace2); err != nil {
		t.Errorf("experiments trace file: %v", err)
	}

	// -workers parity: the reporting tools accept it and the output is
	// identical for any worker count.
	serial := run(t, tools["cmereport"], "-kernel", "MM", "-size", "20", "-points", "64", "-workers", "1")
	parallel := run(t, tools["cmereport"], "-kernel", "MM", "-size", "20", "-points", "64", "-workers", "8")
	if serial != parallel {
		t.Errorf("cmereport output differs across -workers:\n--- 1 ---\n%s--- 8 ---\n%s", serial, parallel)
	}
	// Drawing the sample from the box must consume the seed's random
	// stream as sampling the tiled space does: this estimate pins the
	// result on a tiled space, above the 64-point serial threshold.
	const pinned = "miss 12.50% ±3.31% (repl 12.35%) from 164 points"
	for _, w := range []string{"1", "3"} {
		out := run(t, tools["cmereport"], "-kernel", "MM", "-size", "64", "-tile", "16,8,4", "-workers", w)
		if !strings.Contains(out, "sampled estimate (164 points, 90% confidence): "+pinned) {
			t.Errorf("cmereport -workers %s estimate is not %q:\n%s", w, pinned, out)
		}
	}
	serial = run(t, tools["cachesim"], "-kernel", "T2D", "-size", "64", "-workers", "1")
	parallel = run(t, tools["cachesim"], "-kernel", "T2D", "-size", "64", "-workers", "4")
	if serial != parallel {
		t.Errorf("cachesim output differs across -workers:\n--- 1 ---\n%s--- 4 ---\n%s", serial, parallel)
	}
}
