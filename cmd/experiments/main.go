// Command experiments regenerates the paper's evaluation: Table 2,
// Figures 8 and 9, Table 3, Table 4, and the §3.3 GA-convergence numbers.
//
// Usage:
//
//	experiments -all                  # everything, full problem sizes
//	experiments -figure8 -quick      # Figure 8 at reduced sizes
//	experiments -table3 -csv out/    # also write CSV files
//
// Every search honours -timeout and -budget and Ctrl-C: an interrupted
// run finishes the current search with its best-so-far candidate, so the
// tables printed before the interrupt are always complete and valid.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"

	cmetiling "repro"
	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/experiments"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every table and figure")
		table2   = flag.Bool("table2", false, "regenerate Table 2")
		figure8  = flag.Bool("figure8", false, "regenerate Figure 8 (8KB)")
		figure9  = flag.Bool("figure9", false, "regenerate Figure 9 (32KB)")
		table3   = flag.Bool("table3", false, "regenerate Table 3 (both caches)")
		table4   = flag.Bool("table4", false, "regenerate Table 4 (implies figures)")
		conv     = flag.Bool("convergence", false, "measure GA convergence (§3.3)")
		sampChk  = flag.Bool("sampling", false, "validate the §2.3 sampling rule (164 points)")
		assoc    = flag.Bool("assoc", false, "associativity-sweep extension (beyond the paper)")
		inter    = flag.Bool("interchange", false, "interchange-vs-tiling extension (beyond the paper)")
		quick    = flag.Bool("quick", false, "reduced problem sizes (seconds instead of minutes)")
		quickCap = flag.Int64("quickcap", 200, "size ceiling in quick mode")
		seed     = flag.Uint64("seed", 2002, "experiment seed")
		points   = flag.Int("points", 0, "sample points per evaluation (0 = paper's 164)")
		csvDir   = flag.String("csv", "", "directory to write CSV result files into")
		bars     = flag.Bool("bars", false, "also render figures as ASCII bar charts")
		timeout  = flag.Duration("timeout", 0, "per-search deadline (0 = unbounded)")
		budget   = flag.Int("budget", 0, "per-search evaluation budget (0 = unbounded)")
		workers  = flag.Int("workers", 0, "evaluation goroutines per search (0 = min(8, NumCPU)); never changes results")
		islands  = flag.Int("islands", 0, "GA islands per search, evolving concurrently with elite migration (0/1 = single population)")
		fidelity = flag.Int("fidelity", 0, "successive-halving rungs for multi-fidelity evaluation per search (0/1 = classic full fidelity)")
		traceOut = flag.String("trace-out", "", "append the telemetry event stream of every search to this JSONL file")
		metrics  = flag.Bool("metrics", false, "dump aggregate expvar metrics to stderr at exit")
		pprofOut = flag.String("pprof", "", "write a CPU profile to this file")
		policyF  = flag.String("failure-policy", "", "on a broken evaluation: abort (default) or quarantine (finish the table degraded)")
		stall    = flag.Duration("stall-timeout", 0, "give up on an evaluation batch after this long (0 = no watchdog)")
		faultF   = flag.String("fault-spec", "", "inject deterministic faults, e.g. 'seed=1;eval.panic:after=3,times=1' (chaos testing)")
		version  = cliutil.VersionFlag()
	)
	flag.Parse()
	cliutil.HandleVersion("experiments", version)
	if *all {
		*table2, *figure8, *figure9, *table3, *table4 = true, true, true, true, true
		*conv, *sampChk, *assoc, *inter = true, true, true, true
	}
	if !(*table2 || *figure8 || *figure9 || *table3 || *table4 || *conv || *sampChk || *assoc || *inter) {
		flag.Usage()
		cliutil.Exit(2)
	}
	cfg := experiments.Config{
		Seed: *seed, Quick: *quick, QuickCap: *quickCap,
		Search: cmetiling.Options{
			SamplePoints: *points, Deadline: *timeout, MaxEvaluations: *budget,
			Workers: *workers, Islands: *islands, StallTimeout: *stall,
			Fidelity: cmetiling.Fidelity{Rungs: *fidelity},
		},
	}
	var err error
	cfg.Search.FailurePolicy, err = cmetiling.ParseFailurePolicy(*policyF)
	if err != nil {
		fatal(err)
	}
	var faults *cmetiling.FaultPlan
	if *faultF != "" {
		faults, err = cmetiling.ParseFaultSpec(*faultF)
		if err != nil {
			fatal(err)
		}
	}
	var recorders []cmetiling.Recorder
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		sink := cmetiling.NewJSONLSink(cmetiling.FaultWriter(f, faults, cmetiling.FaultSinkWrite))
		cliutil.AtExit(func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: trace: %v\n", err)
			}
			f.Close()
		})
		recorders = append(recorders, sink)
	}
	if *metrics {
		sink := cmetiling.NewExpvarSink("cmetiling")
		cliutil.AtExit(func() { sink.WriteTo(os.Stderr) })
		recorders = append(recorders, sink)
	}
	// The row types the tables are built from do not carry per-search
	// quarantine lists; the telemetry stream does. Tally quarantine events
	// so a table assembled around set-aside candidates exits degraded.
	quarantined := &quarantineTally{}
	recorders = append(recorders, quarantined)
	cfg.Search.Observer = cmetiling.MultiRecorder(recorders...)
	if *pprofOut != "" {
		// Label evaluation workers so the profile attributes samples to
		// kernel, phase and fidelity rung.
		cmetiling.SetProfileLabels(true)
		if err := cliutil.StartCPUProfile(*pprofOut); err != nil {
			fatal(err)
		}
	}

	// A first Ctrl-C cancels the context: in-flight searches stop at the
	// next generation boundary and report best-so-far; a second Ctrl-C
	// kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if faults != nil {
		ctx = cmetiling.WithFaults(ctx, faults)
	}

	var fig8Rows, fig9Rows []experiments.FigureRow

	if *table2 {
		rows, err := experiments.Table2(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		experiments.RenderTable2(os.Stdout, rows)
		fmt.Println()
	}
	if *figure8 || *table4 {
		fig8Rows, err = experiments.Figure(ctx, cache.DM8K, nil, cfg)
		if err != nil {
			fatal(err)
		}
		experiments.RenderFigure(os.Stdout, "Figure 8: replacement miss ratio before/after tiling (8KB)", fig8Rows)
		if *bars {
			fmt.Println()
			experiments.RenderFigureBars(os.Stdout, "Figure 8 (bars)", fig8Rows)
		}
		fmt.Println()
		writeCSV(*csvDir, "figure8.csv", fig8Rows)
	}
	if *figure9 || *table4 {
		fig9Rows, err = experiments.Figure(ctx, cache.DM32K, nil, cfg)
		if err != nil {
			fatal(err)
		}
		experiments.RenderFigure(os.Stdout, "Figure 9: replacement miss ratio before/after tiling (32KB)", fig9Rows)
		if *bars {
			fmt.Println()
			experiments.RenderFigureBars(os.Stdout, "Figure 9 (bars)", fig9Rows)
		}
		fmt.Println()
		writeCSV(*csvDir, "figure9.csv", fig9Rows)
	}
	if *table3 {
		for _, c := range []cache.Config{cache.DM8K, cache.DM32K} {
			rows, err := experiments.Table3(ctx, c, cfg)
			if err != nil {
				fatal(err)
			}
			experiments.RenderTable3(os.Stdout, rows)
			fmt.Println()
		}
	}
	if *table4 {
		rows := []experiments.Table4Row{
			experiments.Table4("8KB", fig8Rows),
			experiments.Table4("32KB", fig9Rows),
		}
		experiments.RenderTable4(os.Stdout, rows)
		fmt.Println()
	}
	if *assoc {
		rows, err := experiments.AssocSweep(ctx, "MM", 500, []int{1, 2, 4, 8}, cfg)
		if err != nil {
			fatal(err)
		}
		experiments.RenderAssoc(os.Stdout, rows)
		fmt.Println()
	}
	if *inter {
		var rows []experiments.InterchangeRow
		for _, e := range []struct {
			kernel string
			size   int64
		}{{"MM", 500}, {"T2D", 500}, {"T3DJIK", 100}, {"T3DIKJ", 100}} {
			row, err := experiments.InterchangeVsTiling(ctx, e.kernel, e.size, cfg)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, row)
		}
		experiments.RenderInterchange(os.Stdout, rows)
		fmt.Println()
	}
	if *sampChk {
		fmt.Println("Sampling validation (§2.3): 164-point interval vs 8200-point reference")
		for _, e := range []struct {
			kernel string
			size   int64
		}{{"T2D", 500}, {"MM", 500}, {"JACOBI3D", 100}, {"DPSSB", 0}} {
			chk, err := experiments.CheckSampling(e.kernel, e.size, cfg)
			if err != nil {
				fatal(err)
			}
			status := "OK"
			if !chk.WithinInterval {
				status = "OUTSIDE"
			}
			fmt.Printf("  %-12s paper: %v  precise: %v  [%s]\n",
				fmt.Sprintf("%s_%d", chk.Kernel, chk.Size), chk.PaperEstimate, chk.PreciseEstimate, status)
		}
		fmt.Println()
	}
	if *conv {
		entries := []experiments.Entry{
			{Kernel: "MM", Size: 100}, {Kernel: "MM", Size: 500},
			{Kernel: "T2D", Size: 500}, {Kernel: "T3DJIK", Size: 100},
			{Kernel: "JACOBI3D", Size: 100}, {Kernel: "DPSSB"},
		}
		rows, err := experiments.Convergence(ctx, entries, cfg)
		if err != nil {
			fatal(err)
		}
		experiments.RenderConvergence(os.Stdout, rows)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; results above are best-so-far")
		cliutil.Exit(cliutil.ExitInterrupted)
	}
	if n := quarantined.count(); n > 0 {
		fmt.Fprintf(os.Stderr, "experiments: completed degraded: %d evaluation(s) quarantined\n", n)
		cliutil.Exit(cliutil.ExitDegraded)
	}
	cliutil.Exit(cliutil.ExitOK)
}

// quarantineTally counts EvaluationQuarantinedEvents across every search
// of the run, reporting each on stderr as it happens.
type quarantineTally struct {
	mu sync.Mutex
	n  int
}

func (t *quarantineTally) Event(e cmetiling.Event) {
	q, ok := e.(cmetiling.EvaluationQuarantinedEvent)
	if !ok {
		return
	}
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
	fmt.Fprintf(os.Stderr, "experiments: quarantined [%s] %v: %s\n", q.Search, q.Values, q.Reason)
}

func (t *quarantineTally) Add(cmetiling.Counters) {}

func (t *quarantineTally) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

func writeCSV(dir, name string, rows []experiments.FigureRow) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := experiments.CSVFigure(f, rows); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	// An interrupt that surfaces as a context error is a controlled stop,
	// not a failure: the searches already returned best-so-far results.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; results above are best-so-far")
		cliutil.Exit(130)
	}
	cliutil.Fatal("experiments", err)
}
