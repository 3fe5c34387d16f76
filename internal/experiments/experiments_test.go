package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/cache"
)

func quick() Config {
	return Config{Seed: 2024, Quick: true, QuickCap: 100}
}

func TestFigureEntriesMatchPaper(t *testing.T) {
	entries := FigureEntries()
	if len(entries) != 27 {
		t.Fatalf("figure has %d entries, the paper's x-axis lists 27", len(entries))
	}
	labels := map[string]bool{}
	for _, e := range entries {
		labels[e.Label()] = true
	}
	for _, want := range []string{
		"T2D_100", "T2D_500", "T2D_2000", "T3DJIK_20", "T3DJIK_100", "T3DJIK_200",
		"T3DIKJ_20", "T3DIKJ_100", "T3DIKJ_200", "JACOBI3D_20", "JACOBI3D_100",
		"JACOBI3D_200", "MATMUL_100", "MATMUL_500", "MATMUL_2000", "MM_100",
		"MM_500", "MM_2000", "ADI_100", "ADI_500", "ADI_2000", "ADD", "BTRIX",
		"VPENTA2", "DPSSB", "DRADBG1", "DRADFG1",
	} {
		if !labels[want] {
			t.Errorf("missing figure entry %s", want)
		}
	}
}

// TestFigure8ShapeQuick: the headline result on a quick subset — tiling
// drives the replacement ratio of capacity-bound kernels to (near) zero.
func TestFigure8ShapeQuick(t *testing.T) {
	// Sizes avoid power-of-two array strides (which alias mod the cache
	// size and need padding, not tiling — that is Table 3's territory).
	entries := []Entry{
		{Kernel: "T2D", Size: 500},
		{Kernel: "T3DJIK", Size: 100},
		{Kernel: "MM", Size: 100},
		{Kernel: "DPSSB", Size: 60},
	}
	c := quick()
	c.QuickCap = 500
	rows, err := Figure(context.Background(), cache.DM8K, entries, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.NoTiling < 0.05 {
			t.Errorf("%s: untiled ratio %.1f%% suspiciously low", r.Label(), 100*r.NoTiling)
		}
		if r.Tiling > r.NoTiling/2 {
			t.Errorf("%s: tiling only got %.1f%% -> %.1f%%", r.Label(), 100*r.NoTiling, 100*r.Tiling)
		}
		if r.Generations < 15 || r.Generations > 25 {
			t.Errorf("%s: GA ran %d generations, expected the Figure-7 schedule (15-25)",
				r.Label(), r.Generations)
		}
	}
	var buf bytes.Buffer
	RenderFigure(&buf, "Figure 8 (quick)", rows)
	if !strings.Contains(buf.String(), "T2D_500") {
		t.Fatal("render missing rows")
	}
	var csvBuf bytes.Buffer
	if err := CSVFigure(&csvBuf, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csvBuf.String(), "\n"); lines != len(rows)+1 {
		t.Fatalf("csv has %d lines", lines)
	}
}

// TestLargerCacheDoesNotHurt: Figure 9's qualitative relation to Figure 8 —
// with 4x the cache, the untiled replacement ratio does not increase.
func TestLargerCacheDoesNotHurt(t *testing.T) {
	entries := []Entry{{Kernel: "T2D", Size: 100}, {Kernel: "MM", Size: 100}}
	rows8, err := Figure(context.Background(), cache.DM8K, entries, quick())
	if err != nil {
		t.Fatal(err)
	}
	rows32, err := Figure(context.Background(), cache.DM32K, entries, quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows8 {
		if rows32[i].NoTiling > rows8[i].NoTiling+0.05 {
			t.Errorf("%s: 32KB untiled ratio %.1f%% exceeds 8KB %.1f%%",
				rows8[i].Label(), 100*rows32[i].NoTiling, 100*rows8[i].NoTiling)
		}
	}
}

func TestTable2Quick(t *testing.T) {
	rows, err := Table2(context.Background(), quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("table 2 has %d rows", len(rows))
	}
	for _, r := range rows {
		// Total = compulsory + replacement, so total ≥ replacement.
		if r.BeforeTotal < r.BeforeRepl || r.AfterTotal < r.AfterRepl {
			t.Errorf("%s: total < replacement", r.Kernel)
		}
		// Tiling must slash the replacement ratio (Table 2's point). The
		// paper's post-tiling ratios are all ≤3.6%; with 164 sample
		// points the estimate carries ±4% half-width, so assert the
		// ratio is either halved or small in absolute terms.
		if r.AfterRepl > r.BeforeRepl/2 && r.AfterRepl > 0.05 {
			t.Errorf("%s: repl %.1f%% -> %.1f%%", r.Kernel, 100*r.BeforeRepl, 100*r.AfterRepl)
		}
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	if !strings.Contains(buf.String(), "JACOBI3D") {
		t.Fatal("render missing rows")
	}
}

// TestTable3Quick reproduces the Table-3 shape on the conflict kernels at
// reduced size: padding+tiling ends near zero and never behind padding
// alone by a margin.
func TestTable3Quick(t *testing.T) {
	c := quick()
	c.QuickCap = 128 // VPENTA needs enough rows for capacity misses
	rows, err := Table3(context.Background(), cache.DM8K, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("8KB table 3 has %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Original < 0.05 {
			t.Errorf("%s: original ratio %.1f%% too low for a Table-3 kernel", r.Kernel, 100*r.Original)
		}
		if r.PaddingTiling > 0.10 {
			t.Errorf("%s: padding+tiling left %.1f%%", r.Kernel, 100*r.PaddingTiling)
		}
	}
	var buf bytes.Buffer
	RenderTable3(&buf, rows)
	// Quick mode clamps the ADI sizes to the cap, so the label shows the
	// clamped size.
	if !strings.Contains(buf.String(), "VPENTA1") || !strings.Contains(buf.String(), "ADI 128") {
		t.Fatalf("render missing rows:\n%s", buf.String())
	}
	// 32KB half omits ADI.
	if got := Table3Entries(cache.DM32K); len(got) != 4 {
		t.Fatalf("32KB table 3 entries = %d, want 4", len(got))
	}
}

func TestTable4(t *testing.T) {
	rows := []FigureRow{
		{Entry: Entry{Kernel: "T2D", Size: 100}, Tiling: 0.005},
		{Entry: Entry{Kernel: "MM", Size: 100}, Tiling: 0.015},
		{Entry: Entry{Kernel: "ADI", Size: 100}, Tiling: 0.04},
		{Entry: Entry{Kernel: "ADD"}, Tiling: 0.5},     // conflict-bound: excluded
		{Entry: Entry{Kernel: "VPENTA2"}, Tiling: 0.6}, // excluded
	}
	r := Table4("8KB", rows)
	if r.N != 3 {
		t.Fatalf("N = %d, want 3 (conflict kernels excluded)", r.N)
	}
	if r.Below1 != 1.0/3 || r.Below2 != 2.0/3 || r.Below5 != 1.0 {
		t.Fatalf("buckets = %v %v %v", r.Below1, r.Below2, r.Below5)
	}
	var buf bytes.Buffer
	RenderTable4(&buf, []Table4Row{r})
	if !strings.Contains(buf.String(), "8KB") {
		t.Fatal("render missing row")
	}
}

// TestConvergenceMatchesSection33: the GA terminates within the paper's
// 15–25 generation schedule and its evaluation count stays within the
// nominal budget of generations × population.
func TestConvergenceMatchesSection33(t *testing.T) {
	rows, err := Convergence(context.Background(), []Entry{{Kernel: "MM", Size: 64}, {Kernel: "T2D", Size: 100}}, quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Generations < 15 || r.Generations > 25 {
			t.Errorf("%s: %d generations", r.Kernel, r.Generations)
		}
		if r.Evaluations > (r.Generations+1)*30 {
			t.Errorf("%s: %d evaluations exceed nominal budget", r.Kernel, r.Evaluations)
		}
	}
	var buf bytes.Buffer
	RenderConvergence(&buf, rows)
	if !strings.Contains(buf.String(), "MM_64") {
		t.Fatalf("render missing rows:\n%s", buf.String())
	}
}

// TestCheckSampling validates the §2.3 rule end to end.
func TestCheckSampling(t *testing.T) {
	chk, err := CheckSampling("T2D", 500, Config{Seed: 4, Quick: true, QuickCap: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !chk.WithinInterval {
		t.Fatalf("164-point estimate missed the reference: %+v", chk)
	}
	if chk.IntervalHalfWidth > 0.06 {
		t.Fatalf("interval half-width %.3f exceeds the paper's 0.05 by far", chk.IntervalHalfWidth)
	}
	if _, err := CheckSampling("NOPE", 0, Config{}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestAssocSweep: the extension experiment runs and higher associativity
// does not increase the untiled replacement ratio.
func TestAssocSweep(t *testing.T) {
	rows, err := AssocSweep(context.Background(), "MM", 100, []int{1, 2, 4}, quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].NoTiling > rows[i-1].NoTiling+0.05 {
			t.Errorf("untiled ratio rose with associativity: %v -> %v",
				rows[i-1].NoTiling, rows[i].NoTiling)
		}
	}
	var buf bytes.Buffer
	RenderAssoc(&buf, rows)
	if !strings.Contains(buf.String(), "ways") {
		t.Fatal("render missing header")
	}
	if _, err := AssocSweep(context.Background(), "NOPE", 0, []int{1}, quick()); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := AssocSweep(context.Background(), "MM", 100, []int{3}, quick()); err == nil {
		t.Fatal("invalid associativity accepted")
	}
}

// TestInterchangeVsTiling: for the MM kernel, the best pure interchange
// improves on the untiled order but tiling does at least as well.
func TestInterchangeVsTiling(t *testing.T) {
	row, err := InterchangeVsTiling(context.Background(), "MM", 100, quick())
	if err != nil {
		t.Fatal(err)
	}
	if row.BestInterchange > row.Untiled+1e-9 {
		t.Fatalf("best interchange %.3f worse than untiled %.3f", row.BestInterchange, row.Untiled)
	}
	if row.Tiling > row.BestInterchange+0.02 {
		t.Fatalf("tiling %.3f worse than interchange %.3f", row.Tiling, row.BestInterchange)
	}
	if len(row.BestInterchangeOrder) != 3 {
		t.Fatalf("order = %v", row.BestInterchangeOrder)
	}
	var buf bytes.Buffer
	RenderInterchange(&buf, []InterchangeRow{row})
	if !strings.Contains(buf.String(), "MM_100") {
		t.Fatal("render missing row")
	}
	if _, err := InterchangeVsTiling(context.Background(), "NOPE", 0, quick()); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}
