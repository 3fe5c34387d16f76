package ga

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// sphereSpec is a small 3-variable genome for island tests.
func sphereSpec() Spec {
	return Spec{Chroms: []Chromosome{
		NewChromosome(0, 64), NewChromosome(0, 64), NewChromosome(0, 64),
	}}
}

// sphereObj is a deterministic unimodal objective with minimum at 17.
func sphereObj(v []int64) float64 {
	s := 0.0
	for _, x := range v {
		d := float64(x) - 17
		s += d * d
	}
	return s
}

// TestIslandRunDeterministic: a fixed seed must reproduce the multi-island
// run bit-for-bit at every island count, including under -race (the demes
// evolve on their own goroutines).
func TestIslandRunDeterministic(t *testing.T) {
	for _, n := range []int{2, 4} {
		cfg := PaperConfig(42)
		cfg.Islands = n
		run := func() Result {
			res, err := Run(context.Background(), sphereSpec(), sphereObj, cfg)
			if err != nil {
				t.Fatalf("islands=%d: %v", n, err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("islands=%d: two identical runs diverged:\n%+v\n%+v", n, a, b)
		}
		if a.Best == nil || a.Evaluations == 0 {
			t.Fatalf("islands=%d: degenerate result %+v", n, a)
		}
	}
}

// TestIslandsOneIsSinglePopulation: Islands=1 must take the classic
// single-population path and match Islands=0 exactly.
func TestIslandsOneIsSinglePopulation(t *testing.T) {
	base := PaperConfig(7)
	one := base
	one.Islands = 1
	resBase, err := Run(context.Background(), sphereSpec(), sphereObj, base)
	if err != nil {
		t.Fatal(err)
	}
	resOne, err := Run(context.Background(), sphereSpec(), sphereObj, one)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resBase, resOne) {
		t.Fatalf("Islands=1 diverged from single population:\n%+v\n%+v", resBase, resOne)
	}
}

// TestIslandConfigValidate covers the island-specific Validate rules.
func TestIslandConfigValidate(t *testing.T) {
	mk := func(mut func(*Config)) Config {
		cfg := PaperConfig(1)
		mut(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" = valid
	}{
		{"negative islands", mk(func(c *Config) { c.Islands = -1 }), "island count"},
		{"pop too small", mk(func(c *Config) { c.PopSize = 6; c.Islands = 4 }), "cannot fill"},
		{"budget below islands", mk(func(c *Config) { c.Islands = 4; c.MaxEvaluations = 3 }), "below the island count"},
		{"two per island", mk(func(c *Config) { c.PopSize = 8; c.Islands = 4 }), ""},
		{"valid", mk(func(c *Config) { c.Islands = 4 }), ""},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestIslandBudget: MaxEvaluations bounds the summed per-island spend and
// the halt merges to StopBudget; a budget-halted run is as reproducible as
// a converged one.
func TestIslandBudget(t *testing.T) {
	cfg := PaperConfig(11)
	cfg.Islands = 3
	cfg.MaxEvaluations = 40
	run := func() Result {
		res, err := Run(context.Background(), sphereSpec(), sphereObj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("budget-halted runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Evaluations > cfg.MaxEvaluations {
		t.Fatalf("spent %d evaluations, budget %d", a.Evaluations, cfg.MaxEvaluations)
	}
	if a.Stopped != StopBudget {
		t.Fatalf("stopped %v, want StopBudget", a.Stopped)
	}
	if a.Best == nil {
		t.Fatal("budget halt returned no best-so-far")
	}
}

// TestSeedInjectionClampWarns is the regression test for the seed-injection
// bound: supplying more than PopSize-1 seed individuals must run (seeds
// beyond the cap dropped) and report the drop on Result.Warnings.
func TestSeedInjectionClampWarns(t *testing.T) {
	cfg := PaperConfig(5)
	cfg.PopSize = 6
	for i := 0; i < 8; i++ {
		cfg.SeedValues = append(cfg.SeedValues, []int64{int64(i), int64(i), int64(i)})
	}
	res, err := Run(context.Background(), sphereSpec(), sphereObj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "3 of 8 seed individuals dropped") {
		t.Fatalf("warnings = %q, want one 3-of-8-dropped warning", res.Warnings)
	}
	if res.Best == nil {
		t.Fatal("clamped run returned no result")
	}

	// At or under the cap: no warning.
	cfg.SeedValues = cfg.SeedValues[:5]
	res, err = Run(context.Background(), sphereSpec(), sphereObj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("unexpected warnings %q for %d seeds in population %d", res.Warnings, 5, cfg.PopSize)
	}
}

// TestIslandSeedClampWarns: with islands the seeds are dealt round-robin
// and each deme clamps against its own size, naming the island.
func TestIslandSeedClampWarns(t *testing.T) {
	cfg := PaperConfig(5)
	cfg.PopSize = 6
	cfg.Islands = 2 // deme sizes 3 and 3, per-deme cap 2
	for i := 0; i < 8; i++ {
		cfg.SeedValues = append(cfg.SeedValues, []int64{int64(i), int64(i), int64(i)})
	}
	res, err := Run(context.Background(), sphereSpec(), sphereObj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 2 {
		t.Fatalf("warnings = %q, want one per island", res.Warnings)
	}
	for i, w := range res.Warnings {
		if !strings.Contains(w, "on island") || !strings.Contains(w, "2 of 4 seed individuals dropped") {
			t.Errorf("island %d warning %q lacks island tag or drop count", i+1, w)
		}
	}
}

// TestIslandTelemetry checks the island-tagged event stream: every deme
// reports its generations with a 1-based island index, and every barrier
// emits ring-shaped migration events.
func TestIslandTelemetry(t *testing.T) {
	const n = 3
	var cap telemetry.Capture
	cfg := PaperConfig(9)
	cfg.Islands = n
	cfg.Observer = &cap
	if _, err := Run(context.Background(), sphereSpec(), sphereObj, cfg); err != nil {
		t.Fatal(err)
	}
	genZero := map[int]bool{}
	migrations := 0
	for _, e := range cap.Events() {
		switch ev := e.(type) {
		case telemetry.GenerationDone:
			if ev.Island < 1 || ev.Island > n {
				t.Fatalf("generation event island %d outside 1..%d", ev.Island, n)
			}
			if ev.Gen == 0 {
				genZero[ev.Island] = true
			}
		case telemetry.IslandMigration:
			migrations++
			wantFrom := ((ev.To-1)-1+n)%n + 1
			if ev.From != wantFrom {
				t.Fatalf("migration %d -> %d is not the ring edge (want from %d)", ev.From, ev.To, wantFrom)
			}
		}
	}
	if len(genZero) != n {
		t.Fatalf("only %d of %d islands reported generation 0", len(genZero), n)
	}
	if migrations == 0 {
		t.Fatal("no migration events recorded")
	}
}

// TestIslandCheckpointResume: interrupting a multi-island run at any
// barrier snapshot and resuming from it must replay the uninterrupted run
// bit-for-bit, through the version-2 checkpoint's serialised round trip.
func TestIslandCheckpointResume(t *testing.T) {
	cfg := PaperConfig(13)
	cfg.Islands = 2
	cfg.Label = "island-test"

	var snaps []*Checkpoint
	full := cfg
	full.Checkpoint = func(c *Checkpoint) error {
		// Round-trip through the serialised form: what a resume would read
		// is what we keep (also exercising the v2 sum verification).
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, c); err != nil {
			return err
		}
		cp, err := ReadCheckpoint(&buf)
		if err != nil {
			return err
		}
		snaps = append(snaps, cp)
		return nil
	}
	want, err := Run(context.Background(), sphereSpec(), sphereObj, full)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("only %d snapshots written; need a mid-run one", len(snaps))
	}

	// Resume from every snapshot, including the mid-migration-cycle ones.
	for i, cp := range snaps {
		resumed := cfg
		resumed.ResumeFrom = cp
		got, err := Run(context.Background(), sphereSpec(), sphereObj, resumed)
		if err != nil {
			t.Fatalf("resume from snapshot %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resume from snapshot %d diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestIslandCheckpointValidation: version and shape mismatches between a
// snapshot and the island configuration are rejected.
func TestIslandCheckpointValidation(t *testing.T) {
	cfg := PaperConfig(3)
	cfg.Islands = 2
	var snap *Checkpoint
	withCp := cfg
	withCp.Checkpoint = func(c *Checkpoint) error {
		if snap == nil {
			var buf bytes.Buffer
			if err := WriteCheckpoint(&buf, c); err != nil {
				return err
			}
			cp, err := ReadCheckpoint(&buf)
			if err != nil {
				return err
			}
			snap = cp
		}
		return nil
	}
	if _, err := Run(context.Background(), sphereSpec(), sphereObj, withCp); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}
	if snap.Version != checkpointVersionIslands || len(snap.Islands) != 2 {
		t.Fatalf("snapshot version %d islands %d, want v%d with 2 islands",
			snap.Version, len(snap.Islands), checkpointVersionIslands)
	}

	// A v2 snapshot must not resume a single-population run...
	single := PaperConfig(3)
	single.ResumeFrom = snap
	if _, err := Run(context.Background(), sphereSpec(), sphereObj, single); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("single-population resume of a v2 snapshot: err = %v, want version mismatch", err)
	}
	// ...nor a run with a different island count.
	three := cfg
	three.Islands = 3
	three.ResumeFrom = snap
	if _, err := Run(context.Background(), sphereSpec(), sphereObj, three); err == nil ||
		!strings.Contains(err.Error(), "islands") {
		t.Fatalf("3-island resume of a 2-island snapshot: err = %v, want island-count mismatch", err)
	}
}

// TestIslandSeedsStable pins the RNG-stream derivation: island seeds
// depend on the run seeds and the island index alone, never on the island
// count, so checkpoint compatibility cannot drift silently.
func TestIslandSeedsStable(t *testing.T) {
	cfg2 := Config{Params: Params{Seed1: 100, Seed2: 200}, Islands: 2}
	cfg8 := Config{Params: Params{Seed1: 100, Seed2: 200}, Islands: 8}
	for i := 0; i < 2; i++ {
		a1, a2 := islandSeeds(cfg2, i)
		b1, b2 := islandSeeds(cfg8, i)
		if a1 != b1 || a2 != b2 {
			t.Fatalf("island %d seeds changed with island count", i)
		}
	}
	a1, a2 := islandSeeds(cfg2, 0)
	b1, b2 := islandSeeds(cfg2, 1)
	if a1 == b1 || a2 == b2 {
		t.Fatal("adjacent islands share a seed")
	}
}

// TestIslandSizesAndBudgets checks the even-split helpers.
func TestIslandSizesAndBudgets(t *testing.T) {
	if got := islandSizes(30, 4); !reflect.DeepEqual(got, []int{8, 8, 7, 7}) {
		t.Fatalf("islandSizes(30, 4) = %v", got)
	}
	if got := islandBudgets(10, 3); !reflect.DeepEqual(got, []int{4, 3, 3}) {
		t.Fatalf("islandBudgets(10, 3) = %v", got)
	}
	if got := islandBudgets(0, 3); !reflect.DeepEqual(got, []int{0, 0, 0}) {
		t.Fatalf("islandBudgets(0, 3) = %v (0 must stay unlimited)", got)
	}
}
