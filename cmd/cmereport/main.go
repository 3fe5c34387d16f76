// Command cmereport prints the locality analysis of a kernel: its reuse
// vectors, the Cache Miss Equations generated for it (counts per family
// and, with -dump, the polyhedra themselves), and the sampled miss-ratio
// estimate of §2.3.
//
// Usage:
//
//	cmereport -kernel MM -size 100
//	cmereport -kernel T2D -size 100 -tile 8,8 -dump
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"

	"repro/internal/cliutil"
	"repro/internal/cme"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/iterspace"
	"repro/internal/kernels"
	"repro/internal/parser"
	"repro/internal/reuse"
	"repro/internal/sampling"
	"repro/internal/tiling"
)

func main() {
	var (
		kernel  = flag.String("kernel", "MM", "kernel name")
		file    = flag.String("file", "", "path to a textual kernel description (overrides -kernel)")
		size    = flag.Int64("size", 0, "problem size (0 = default)")
		cacheF  = flag.String("cache", "8k", "cache: 8k, 32k, or size:line:assoc")
		tileF   = flag.String("tile", "", "tile sizes for a tiled-space report")
		points  = flag.Int("points", sampling.PaperSampleSize, "sample points for the estimate")
		dump    = flag.Bool("dump", false, "dump every equation polyhedron")
		seed    = flag.Uint64("seed", 1, "sampling seed")
		workers = flag.Int("workers", 0, "classification goroutines for the sampled estimate (0 = CMETILING_WORKERS or min(8, NumCPU)); never changes the output")
		version = cliutil.VersionFlag()
	)
	flag.Parse()
	cliutil.HandleVersion("cmereport", version)
	if *points < 1 {
		fatal(fmt.Errorf("-points %d: need at least one sample point", *points))
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers %d is negative", *workers))
	}

	cfg, err := cliutil.ParseCache(*cacheF)
	if err != nil {
		fatal(err)
	}
	var nest *ir.Nest
	if *file != "" {
		prog, perr := loadKernel(*file)
		if perr != nil {
			fatal(perr)
		}
		nest = prog
	} else {
		k, ok := kernels.Get(*kernel)
		if !ok {
			fatal(fmt.Errorf("unknown kernel %q", *kernel))
		}
		var ierr error
		nest, ierr = k.Instance(*size)
		if ierr != nil {
			fatal(ierr)
		}
	}
	fmt.Printf("kernel %s  cache %v\n%s\n", nest.Name, cfg, nest.String())

	names := nest.VarNames()
	fmt.Println("reuse vectors:")
	for _, v := range reuse.Compute(nest, cfg) {
		fmt.Printf("  %-14s %s <- %s  r=%v\n", v.Kind,
			nest.Refs[v.Ref].StringVars(names), nest.Refs[v.Source].StringVars(names), v.R)
	}

	var set *cme.Set
	var tile []int64
	if *tileF != "" {
		tile, err = cliutil.ParseTile(*tileF, nest.Depth())
		if err != nil {
			fatal(err)
		}
		set, err = cme.GenerateTiled(nest, cfg, tile)
	} else {
		set, err = cme.Generate(nest, cfg)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\ncache miss equations: %d convex region(s), %d compulsory, %d replacement\n",
		set.NumRegions, len(set.Compulsory), len(set.Replacement))
	if *dump {
		for _, eq := range set.Compulsory {
			fmt.Println(" ", eq)
		}
		for _, eq := range set.Replacement {
			fmt.Println(" ", eq)
		}
	}

	box, err := tiling.Box(nest)
	if err != nil {
		fatal(err)
	}
	var space iterspace.Space = box
	if tile != nil {
		space = iterspace.NewTiled(box, tile)
	}
	an, err := cme.NewAnalyzer(nest, space, cfg)
	if err != nil {
		fatal(err)
	}
	if *workers == 0 {
		*workers = core.DefaultWorkers()
	}
	// Draw consumes the random stream as Box.Sample and Tiled.Sample do,
	// so a seed gives the estimate EstimateMissRatio gives on the space.
	sample := sampling.Draw(box, *points, rand.New(rand.NewPCG(*seed, *seed^0xabcd)))
	ans := []*cme.Analyzer{an}
	for len(ans) < min(*workers, *points) {
		ans = append(ans, an.Clone())
	}
	st, err := sample.EvaluateWith(context.Background(), ans)
	if err != nil {
		fatal(err)
	}
	est := sampling.FromStats(st, *points, 0.90)
	fmt.Printf("\nsampled estimate (%d points, 90%% confidence): %v\n", *points, est)

	fmt.Println("per-reference estimates:")
	perRef := sampling.EstimatePerRef(an, *points, 0.90, rand.New(rand.NewPCG(*seed^0x77, *seed)))
	for i, e := range perRef {
		fmt.Printf("  %-14s %v\n", nest.Refs[i].StringVars(names), e)
	}
}

func fatal(err error) {
	cliutil.Fatal("cmereport", err)
}

func loadKernel(path string) (*ir.Nest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	prog, err := parser.Parse(f, path)
	if err != nil {
		return nil, err
	}
	return prog.Nest, nil
}
