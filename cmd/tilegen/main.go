// Command tilegen runs the paper's searches on a benchmark kernel: GA tile
// selection (default), GA padding selection, sequential padding+tiling, or
// the joint single-genome search.
//
// Usage:
//
//	tilegen -kernel MM -size 500 -cache 8k -seed 1
//	tilegen -kernel VPENTA1 -mode padtile
//	tilegen -kernel MM -timeout 2s -budget 100     # bounded search
//	tilegen -kernel MM -checkpoint mm.ckpt         # snapshot each generation
//	tilegen -kernel MM -resume mm.ckpt             # continue where it stopped
//	tilegen -list
//
// Bounded runs (a deadline, an evaluation budget, or Ctrl-C) are not
// failures: the search stops at the next generation boundary and reports
// the best candidate found so far, with the stop reason on the result.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	cmetiling "repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		kernel   = flag.String("kernel", "MM", "kernel name from the Table-1 catalog")
		file     = flag.String("file", "", "path to a textual kernel description (overrides -kernel)")
		size     = flag.Int64("size", 0, "problem size (0 = kernel default)")
		cacheF   = flag.String("cache", "8k", "cache config: 8k, 32k, or size:line:assoc in bytes")
		seed     = flag.Uint64("seed", 1, "random seed (searches are deterministic per seed)")
		points   = flag.Int("points", 0, "sample points per evaluation (0 = paper's 164)")
		mode     = flag.String("mode", "tile", "search mode: tile, order, pad, padtile, joint")
		list     = flag.Bool("list", false, "list the kernel catalog and exit")
		timeout  = flag.Duration("timeout", 0, "search deadline (0 = unbounded)")
		budget   = flag.Int("budget", 0, "max objective evaluations (0 = unbounded)")
		ckptPath = flag.String("checkpoint", "", "write a resumable snapshot here every generation")
		resume   = flag.String("resume", "", "resume the search from this checkpoint file")
		progress = flag.Bool("progress", false, "print per-generation progress to stderr")
		workers  = flag.Int("workers", 0, "evaluation goroutines per search (0 = min(8, NumCPU)); never changes the result")
		islands  = flag.Int("islands", 0, "GA islands evolving concurrently with elite migration (0/1 = single population); deterministic per seed")
		fidelity = flag.Int("fidelity", 0, "successive-halving rungs for multi-fidelity evaluation (0/1 = classic full fidelity); deterministic per seed")
		traceOut = flag.String("trace-out", "", "append the search's telemetry event stream to this JSONL file")
		metrics  = flag.Bool("metrics", false, "dump aggregate expvar metrics to stderr at exit")
		pprofOut = flag.String("pprof", "", "write a CPU profile to this file")
		policyF  = flag.String("failure-policy", "", "on a broken evaluation: abort (default) or quarantine (complete degraded on best-so-far)")
		stall    = flag.Duration("stall-timeout", 0, "give up on an evaluation batch after this long (0 = no watchdog)")
		faultF   = flag.String("fault-spec", "", "inject deterministic faults, e.g. 'seed=1;eval.panic:after=3,times=1' (chaos testing)")
		version  = cliutil.VersionFlag()
	)
	flag.Parse()
	cliutil.HandleVersion("tilegen", version)

	if *list {
		fmt.Printf("%-10s %-10s %-5s %-18s %s\n", "NAME", "PROGRAM", "DEPTH", "SIZES", "DESCRIPTION")
		for _, k := range cmetiling.Kernels() {
			sizes := "fixed"
			if len(k.Sizes) > 0 {
				parts := make([]string, len(k.Sizes))
				for i, s := range k.Sizes {
					parts[i] = fmt.Sprint(s)
				}
				sizes = strings.Join(parts, ",")
			}
			fmt.Printf("%-10s %-10s %-5d %-18s %s\n", k.Name, k.Program, k.Depth, sizes, k.Description)
		}
		cliutil.Exit(0)
	}

	cfg, err := cliutil.ParseCache(*cacheF)
	if err != nil {
		fatal(err)
	}
	var nest *cmetiling.Nest
	if *file != "" {
		nest, err = cmetiling.ParseKernelFile(*file)
		if err != nil {
			fatal(err)
		}
	} else {
		k, ok := cmetiling.GetKernel(*kernel)
		if !ok {
			fatal(fmt.Errorf("unknown kernel %q (use -list)", *kernel))
		}
		nest, err = k.Instance(*size)
		if err != nil {
			fatal(err)
		}
	}
	opt := cmetiling.Options{
		Cache: cfg, Seed: *seed, SamplePoints: *points,
		Deadline: *timeout, MaxEvaluations: *budget,
		Workers: *workers, Islands: *islands, StallTimeout: *stall,
		Fidelity: cmetiling.Fidelity{Rungs: *fidelity},
	}
	opt.FailurePolicy, err = cmetiling.ParseFailurePolicy(*policyF)
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
	// A first Ctrl-C cancels the search, which then returns its
	// best-so-far tile; a second Ctrl-C kills the process. The context
	// also carries the fault plan to the search and to checkpoint writes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = cmetiling.WithFaults(ctx, faults)
	// degraded notes why the run finished on a weakened path (quarantined
	// evaluations, lost checkpoint writes, a fallback resume); any entry
	// turns exit 0 into ExitDegraded.
	var degraded []string
	var recorders []cmetiling.Recorder
	if *progress {
		recorders = append(recorders, cmetiling.NewTTYSink(os.Stderr))
	}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		sink := cmetiling.NewJSONLSink(cmetiling.FaultWriter(f, faults, cmetiling.FaultSinkWrite))
		cliutil.AtExit(func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tilegen: trace: %v\n", err)
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
	opt.Observer = cmetiling.MultiRecorder(recorders...)
	if *pprofOut != "" {
		// Label evaluation workers so the profile attributes samples to
		// kernel, phase and fidelity rung.
		cmetiling.SetProfileLabels(true)
		if err := cliutil.StartCPUProfile(*pprofOut); err != nil {
			fatal(err)
		}
	}
	if *ckptPath != "" {
		// A lost snapshot weakens resumability but should not kill a
		// search that is otherwise making progress: warn, mark the run
		// degraded, and keep going.
		warned := false
		opt.Checkpoint = func(c *cmetiling.Checkpoint) error {
			err := cliutil.SaveCheckpoint(ctx, *ckptPath, c)
			if err != nil && !warned {
				warned = true
				degraded = append(degraded, fmt.Sprintf("checkpoint writes failing (%v)", err))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "tilegen: checkpoint: %v (continuing without snapshot)\n", err)
			}
			return nil
		}
	}
	if *resume != "" {
		c, recovered, err := cliutil.LoadCheckpoint(*resume, opt.Observer)
		if err != nil {
			fatal(fmt.Errorf("resume: %w", err))
		}
		if recovered {
			fmt.Fprintf(os.Stderr, "tilegen: resume: primary checkpoint unusable, resumed from %s\n",
				cliutil.PrevCheckpoint(*resume))
			degraded = append(degraded, "resumed from rotated previous-good checkpoint")
		}
		opt.ResumeFrom = c
	}

	fmt.Printf("kernel %s  cache %v  seed %d\n", nest.Name, cfg, *seed)
	fmt.Print(nest.String())

	var stopped cmetiling.StopReason
	var quarantined []cmetiling.QuarantinedEval
	switch *mode {
	case "tile":
		res, err := cmetiling.OptimizeTiling(ctx, nest, opt)
		if err != nil {
			fatal(err)
		}
		stopped, quarantined = res.Stopped, res.Quarantined
		fmt.Printf("\nbest tile: %v (GA: %d generations, %d evaluations)\n",
			res.Tile, res.GA.Generations, res.GA.Evaluations)
		fmt.Printf("before: %v\nafter:  %v\n", res.Before, res.After)
		fmt.Println("\ntiled nest:")
		fmt.Print(res.TiledNest.String())
	case "order":
		res, err := cmetiling.OptimizeTilingOrder(ctx, nest, opt)
		if err != nil {
			fatal(err)
		}
		stopped, quarantined = res.Stopped, res.Quarantined
		fmt.Printf("\nbest tile: %v  tile-loop order: %v (GA: %d generations, %d evaluations)\n",
			res.Tile, res.Order, res.GA.Generations, res.GA.Evaluations)
		fmt.Printf("before: %v\nafter:  %v\n", res.Before, res.After)
		fmt.Println("\ntiled nest:")
		fmt.Print(res.TiledNest.String())
	case "pad":
		res, err := cmetiling.OptimizePadding(ctx, nest, opt)
		if err != nil {
			fatal(err)
		}
		stopped, quarantined = res.Stopped, res.Quarantined
		fmt.Printf("\nbest padding: inter %v intra %v (elements)\n", res.Plan.Inter, res.Plan.Intra)
		fmt.Printf("before: %v\nafter:  %v\n", res.Before, res.After)
	case "padtile":
		res, err := cmetiling.OptimizePaddingThenTiling(ctx, nest, opt)
		if err != nil {
			fatal(err)
		}
		stopped, quarantined = res.Stopped, res.Quarantined
		printCombined(res)
	case "joint":
		res, err := cmetiling.OptimizeJoint(ctx, nest, opt)
		if err != nil {
			fatal(err)
		}
		stopped, quarantined = res.Stopped, res.Quarantined
		printCombined(res)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	if stopped != cmetiling.StopConverged {
		fmt.Printf("\nsearch stopped early (%v); result above is best-so-far\n", stopped)
	}
	if len(quarantined) > 0 {
		degraded = append(degraded, fmt.Sprintf("%d evaluation(s) quarantined", len(quarantined)))
		for _, q := range quarantined {
			fmt.Fprintf(os.Stderr, "tilegen: quarantined [%s] %v: %s\n", q.Phase, q.Values, q.Reason)
		}
	}
	if len(degraded) > 0 {
		fmt.Fprintf(os.Stderr, "tilegen: completed degraded: %s\n", strings.Join(degraded, "; "))
		cliutil.Exit(cliutil.ExitDegraded)
	}
	cliutil.Exit(cliutil.ExitOK)
}

func printCombined(res *cmetiling.CombinedResult) {
	fmt.Printf("\npadding: inter %v intra %v (elements)\ntile: %v\n",
		res.Plan.Inter, res.Plan.Intra, res.Tile)
	fmt.Printf("original:        %v\npadding only:    %v\npadding+tiling:  %v\n",
		res.Original, res.Padded, res.Combined)
}

func fatal(err error) {
	cliutil.Fatal("tilegen", err)
}
