package cme

import (
	"strings"
	"testing"

	"repro/internal/cache"
)

func TestGenerateCounts(t *testing.T) {
	nest := mmNest(8)
	cfg := cache.Config{Size: 512, LineSize: 32, Assoc: 1}
	set, err := Generate(nest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if set.NumRegions != 1 {
		t.Fatalf("untiled regions = %d", set.NumRegions)
	}
	if len(set.Vectors) == 0 {
		t.Fatal("no reuse vectors")
	}
	// One replacement equation per (vector, interfering ref, region²).
	if want := 2 * len(set.Vectors) * len(nest.Refs); len(set.Replacement) != want {
		t.Fatalf("replacement equations = %d, want %d", len(set.Replacement), want)
	}
	// Compulsory: per vector, one piece per nonzero vector component plus
	// one boundary equation for spatial vectors with nonzero delta.
	if len(set.Compulsory) == 0 {
		t.Fatal("no compulsory equations")
	}
	for _, eq := range set.Compulsory {
		if eq.Kind != Compulsory || eq.Interferer != -1 || eq.RegionA != 0 {
			t.Fatalf("malformed compulsory equation %+v", eq)
		}
	}
	for _, eq := range set.Replacement {
		if eq.Kind != Replacement || eq.Interferer < 0 {
			t.Fatalf("malformed replacement equation %+v", eq)
		}
	}
}

// TestRegionScaling reproduces §2.4's accounting: with n convex regions,
// compulsory equations multiply by n and replacement equations by n².
func TestRegionScaling(t *testing.T) {
	nest := mmNest(8)
	cfg := cache.Config{Size: 512, LineSize: 32, Assoc: 1}
	base, err := Generate(nest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tile 8x8x8 with 3x8x3: dims 0 and 2 ragged -> 4 regions.
	set, err := GenerateTiled(nest, cfg, []int64{3, 8, 3})
	if err != nil {
		t.Fatal(err)
	}
	if set.NumRegions != 4 {
		t.Fatalf("regions = %d, want 4", set.NumRegions)
	}
	if want := 4 * len(base.Compulsory); len(set.Compulsory) != want {
		t.Fatalf("tiled compulsory = %d, want %d (=4x%d)", len(set.Compulsory), want, len(base.Compulsory))
	}
	if want := 16 * len(base.Replacement); len(set.Replacement) != want {
		t.Fatalf("tiled replacement = %d, want %d (=16x%d)", len(set.Replacement), want, len(base.Replacement))
	}
	// Even tiling (2,2,2 divides 8): single region, same counts as untiled.
	even, err := GenerateTiled(nest, cfg, []int64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if even.NumRegions != 1 {
		t.Fatalf("even tiling regions = %d, want 1", even.NumRegions)
	}
	if len(even.Compulsory) != len(base.Compulsory) || len(even.Replacement) != len(base.Replacement) {
		t.Fatal("even tiling changed equation counts")
	}
}

func TestEquationString(t *testing.T) {
	nest := transposeNest(4)
	set, err := Generate(nest, cache.Config{Size: 256, LineSize: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Compulsory) == 0 || len(set.Replacement) == 0 {
		t.Fatal("missing equations")
	}
	if s := set.Compulsory[0].String(); !strings.Contains(s, "compulsory") {
		t.Fatalf("compulsory String = %q", s)
	}
	if s := set.Replacement[0].String(); !strings.Contains(s, "replacement") {
		t.Fatalf("replacement String = %q", s)
	}
	if Compulsory.String() != "compulsory" || Replacement.String() != "replacement" {
		t.Fatal("EquationKind strings")
	}
	// Variables print by name: the loop variables, the interferer's primed
	// copy and the wrap variable n, which steps aside for a loop named n.
	nest.Loops[1].Var = "n"
	if set, err = Generate(nest, cache.Config{Size: 256, LineSize: 32, Assoc: 1}); err != nil {
		t.Fatal(err)
	}
	s := set.Replacement[0].String()
	for _, want := range []string{"i'", "n'", "*n_", "&& n_-1 >= 0}"} {
		if !strings.Contains(s, want) {
			t.Errorf("replacement String lacks %q: %s", want, s)
		}
	}
	if strings.Contains(s, "v0") {
		t.Errorf("replacement String prints an unnamed variable: %s", s)
	}
}

func TestGenerateRejectsNonRectangular(t *testing.T) {
	nest := transposeNest(4)
	nest.Loops[0].Step = 2
	if _, err := Generate(nest, cache.DM8K); err == nil {
		t.Fatal("non-rectangular nest accepted")
	}
}
