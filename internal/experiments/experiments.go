// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): Table 2 (miss ratios before/after tiling for four
// kernels), Figures 8 and 9 (replacement miss ratio before/after tiling
// for the whole benchmark list at 8KB and 32KB), Table 3 (padding and
// padding+tiling for the conflict-bound kernels), Table 4 (the <1%/<2%/<5%
// buckets), plus the GA-convergence measurements backing §3.3.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sampling"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives every random choice; a fixed seed reproduces the run.
	Seed uint64
	// Quick trims problem sizes (≤ QuickCap) so the full suite runs in
	// seconds — used by tests; the shapes are preserved.
	Quick bool
	// QuickCap is the size ceiling in quick mode (0 = 200).
	QuickCap int64
	// Search is the template every search's options are copied from; each
	// search then sets its own Cache and a Seed derived from Seed. Its
	// Deadline and MaxEvaluations bound each search individually (bounded
	// runs report their best-so-far tile, so the tables stay complete),
	// and its Observer receives the telemetry of every search the suite
	// runs.
	Search core.Options
}

func (c Config) cap() int64 {
	if !c.Quick {
		return 1 << 62
	}
	if c.QuickCap == 0 {
		return 200
	}
	return c.QuickCap
}

func (c Config) options(cfg cache.Config, salt uint64) core.Options {
	o := c.Search
	o.Cache = cfg
	o.Seed = c.Seed*0x9e3779b97f4a7c15 + salt
	return o
}

// Entry identifies one kernel/size configuration of Figures 8–9.
type Entry struct {
	Kernel string
	Size   int64 // 0 = the kernel's fixed default size
}

// Label renders the figure's x-axis label (e.g. "T2D_500", "ADD").
func (e Entry) Label() string {
	if e.Size == 0 {
		return e.Kernel
	}
	return fmt.Sprintf("%s_%d", e.Kernel, e.Size)
}

// FigureEntries returns the 27 kernel/size configurations on the x-axis of
// Figures 8 and 9.
func FigureEntries() []Entry {
	var out []Entry
	for _, name := range []string{"T2D", "T3DJIK", "T3DIKJ", "JACOBI3D", "MATMUL", "MM", "ADI"} {
		k, _ := kernels.Get(name)
		for _, s := range k.Sizes {
			out = append(out, Entry{Kernel: name, Size: s})
		}
	}
	for _, name := range []string{"ADD", "BTRIX", "VPENTA2", "DPSSB", "DRADBG1", "DRADFG1"} {
		out = append(out, Entry{Kernel: name})
	}
	return out
}

// clampSize applies quick-mode size reduction.
func (c Config) clampSize(kernel string, size int64) int64 {
	k, _ := kernels.Get(kernel)
	if size == 0 {
		size = k.DefaultSize
	}
	if size > c.cap() {
		size = c.cap()
	}
	return size
}

// FigureRow is one bar pair of Figure 8/9.
type FigureRow struct {
	Entry
	// NoTiling and Tiling are replacement miss ratios (0..1).
	NoTiling, Tiling float64
	// Tile is the GA-selected tile vector.
	Tile []int64
	// Generations the GA ran (§3.3 claims 15–25).
	Generations int
}

// Figure runs the before/after-tiling comparison of Figure 8 (cache =
// DM8K) or Figure 9 (DM32K) for the given entries (nil = all 27).
func Figure(ctx context.Context, cfg cache.Config, entries []Entry, c Config) ([]FigureRow, error) {
	if entries == nil {
		entries = FigureEntries()
	}
	rows := make([]FigureRow, 0, len(entries))
	for i, e := range entries {
		k, ok := kernels.Get(e.Kernel)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown kernel %s", e.Kernel)
		}
		nest, err := k.Instance(c.clampSize(e.Kernel, e.Size))
		if err != nil {
			return nil, err
		}
		res, err := core.OptimizeTiling(ctx, nest, c.options(cfg, uint64(i)+1))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.Label(), err)
		}
		rows = append(rows, FigureRow{
			Entry:       e,
			NoTiling:    res.Before.ReplacementRatio,
			Tiling:      res.After.ReplacementRatio,
			Tile:        res.Tile,
			Generations: res.GA.Generations,
		})
	}
	return rows, nil
}

// Table2Row is one row of Table 2 (8KB direct-mapped, 32B lines).
type Table2Row struct {
	Kernel string
	Size   int64
	// Miss ratios before and after tiling: total and replacement.
	BeforeTotal, BeforeRepl float64
	AfterTotal, AfterRepl   float64
	Tile                    []int64
}

// Table2Entries returns the four kernel/size pairs of Table 2.
func Table2Entries() []Entry {
	return []Entry{
		{Kernel: "T2D", Size: 2000},
		{Kernel: "T3DJIK", Size: 200},
		{Kernel: "T3DIKJ", Size: 200},
		{Kernel: "JACOBI3D", Size: 200},
	}
}

// Table2 regenerates Table 2.
func Table2(ctx context.Context, c Config) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, 4)
	for i, e := range Table2Entries() {
		k, _ := kernels.Get(e.Kernel)
		size := c.clampSize(e.Kernel, e.Size)
		nest, err := k.Instance(size)
		if err != nil {
			return nil, err
		}
		res, err := core.OptimizeTiling(ctx, nest, c.options(cache.DM8K, 100+uint64(i)))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Kernel:      e.Kernel,
			Size:        size,
			BeforeTotal: res.Before.MissRatio,
			BeforeRepl:  res.Before.ReplacementRatio,
			AfterTotal:  res.After.MissRatio,
			AfterRepl:   res.After.ReplacementRatio,
			Tile:        res.Tile,
		})
	}
	return rows, nil
}

// Table3Row is one row of Table 3.
type Table3Row struct {
	Kernel string
	Size   int64
	Cache  cache.Config
	// Replacement miss ratios: untouched, padding only, padding+tiling.
	Original, Padding, PaddingTiling float64
	Plan                             string // rendered padding plan
	Tile                             []int64
}

// Table3Entries returns the kernel set of Table 3 for the given cache
// (the 32KB half omits the ADI rows, as in the paper).
func Table3Entries(cfg cache.Config) []Entry {
	es := []Entry{{Kernel: "ADD"}, {Kernel: "BTRIX"}, {Kernel: "VPENTA1"}, {Kernel: "VPENTA2"}}
	if cfg.Size == cache.DM8K.Size {
		es = append(es, Entry{Kernel: "ADI", Size: 1000}, Entry{Kernel: "ADI", Size: 2000})
	}
	return es
}

// Table3 regenerates one cache's half of Table 3.
func Table3(ctx context.Context, cfg cache.Config, c Config) ([]Table3Row, error) {
	entries := Table3Entries(cfg)
	rows := make([]Table3Row, 0, len(entries))
	for i, e := range entries {
		k, _ := kernels.Get(e.Kernel)
		size := c.clampSize(e.Kernel, e.Size)
		nest, err := k.Instance(size)
		if err != nil {
			return nil, err
		}
		res, err := core.OptimizePaddingThenTiling(ctx, nest, c.options(cfg, 200+uint64(i)))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Kernel:        e.Kernel,
			Size:          size,
			Cache:         cfg,
			Original:      res.Original.ReplacementRatio,
			Padding:       res.Padded.ReplacementRatio,
			PaddingTiling: res.Combined.ReplacementRatio,
			Plan:          fmt.Sprintf("inter%v intra%v", res.Plan.Inter, res.Plan.Intra),
			Tile:          res.Tile,
		})
	}
	return rows, nil
}

// Table4Row is one row of Table 4: the fraction of kernel configurations
// (excluding the Table-3 conflict set) whose post-tiling replacement miss
// ratio falls below 1%, 2% and 5%.
type Table4Row struct {
	Cache                  string
	Below1, Below2, Below5 float64
	N                      int
}

// Table4 derives Table 4 from figure rows (pass the Figure-8 rows with
// "8KB" and Figure-9 rows with "32KB").
func Table4(label string, rows []FigureRow) Table4Row {
	conflict := map[string]bool{}
	for _, k := range kernels.All() {
		if k.ConflictBound {
			conflict[k.Name] = true
		}
	}
	out := Table4Row{Cache: label}
	for _, r := range rows {
		if conflict[r.Kernel] {
			continue
		}
		out.N++
		if r.Tiling < 0.01 {
			out.Below1++
		}
		if r.Tiling < 0.02 {
			out.Below2++
		}
		if r.Tiling < 0.05 {
			out.Below5++
		}
	}
	if out.N > 0 {
		out.Below1 /= float64(out.N)
		out.Below2 /= float64(out.N)
		out.Below5 /= float64(out.N)
	}
	return out
}

// ConvergenceRow records the GA behaviour §3.3 reports: generations to
// termination (15–25) and distinct objective evaluations (≤450 nominal).
type ConvergenceRow struct {
	Kernel      string
	Size        int64
	Generations int
	Evaluations int
	BestRatio   float64
	ConvergedAt int // first generation the 2% criterion held at/after MinGens
}

// Convergence measures GA convergence on a set of kernels.
func Convergence(ctx context.Context, entries []Entry, c Config) ([]ConvergenceRow, error) {
	rows := make([]ConvergenceRow, 0, len(entries))
	for i, e := range entries {
		k, ok := kernels.Get(e.Kernel)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown kernel %s", e.Kernel)
		}
		size := c.clampSize(e.Kernel, e.Size)
		nest, err := k.Instance(size)
		if err != nil {
			return nil, err
		}
		res, err := core.OptimizeTiling(ctx, nest, c.options(cache.DM8K, 300+uint64(i)))
		if err != nil {
			return nil, err
		}
		row := ConvergenceRow{
			Kernel:      e.Kernel,
			Size:        size,
			Generations: res.GA.Generations,
			Evaluations: res.GA.Evaluations,
			BestRatio:   res.After.ReplacementRatio,
			ConvergedAt: -1,
		}
		for _, h := range res.GA.History {
			if h.Converged && row.ConvergedAt < 0 {
				row.ConvergedAt = h.Gen
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SamplingCheck verifies the §2.3 claim on a kernel: the 164-point
// estimate's interval brackets a high-precision estimate.
type SamplingCheck struct {
	Kernel            string
	Size              int64
	PaperEstimate     sampling.Estimate
	PreciseEstimate   sampling.Estimate
	WithinInterval    bool
	IntervalHalfWidth float64
}

// CheckSampling runs the §2.3 validation for one kernel under DM8K: a
// 164-point estimate against a 50x larger reference sample. The paper's
// claim holds when the precise ratio falls inside the small estimate's
// 90% interval (allowing the reference's own residual width).
func CheckSampling(kernel string, size int64, c Config) (SamplingCheck, error) {
	k, ok := kernels.Get(kernel)
	if !ok {
		return SamplingCheck{}, fmt.Errorf("experiments: unknown kernel %s", kernel)
	}
	size = c.clampSize(kernel, size)
	nest, err := k.Instance(size)
	if err != nil {
		return SamplingCheck{}, err
	}
	small, precise, err := sampling.CompareSampleSizes(nest, cache.DM8K,
		sampling.PaperSampleSize, 50*sampling.PaperSampleSize, c.Seed)
	if err != nil {
		return SamplingCheck{}, err
	}
	lo, hi := small.Interval()
	slack := precise.Half
	out := SamplingCheck{
		Kernel:            kernel,
		Size:              size,
		PaperEstimate:     small,
		PreciseEstimate:   precise,
		WithinInterval:    precise.MissRatio >= lo-slack && precise.MissRatio <= hi+slack,
		IntervalHalfWidth: small.Half,
	}
	return out, nil
}
