package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	cmetiling "repro"
	"repro/internal/cliutil"
	"repro/internal/ir"
	"repro/internal/padding"
)

// outcome is what one facade search returns, in the fields a caller uses.
type outcome struct {
	Tile        []int64
	Plan        *padding.Plan `json:",omitempty"`
	Miss, Repl  float64
	Half        float64
	Evals, Gens int
	Stopped     string
	Quarantined int
}

func (o outcome) hash() string {
	b, _ := json.Marshal(o) // plain data: cannot fail
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// facadeSearch runs one search the way a library caller would: the paper's
// GA configuration, default Workers, no shared cache. Conflict-bound
// kernels get the Table-3 padding-then-tiling search.
func facadeSearch(op searchOp, nest *ir.Nest, obs cmetiling.Recorder) (outcome, error) {
	cfg, err := cliutil.ParseCache(op.Cache)
	if err != nil {
		return outcome{}, err
	}
	opt := cmetiling.Options{Cache: cfg, Seed: op.Seed, Observer: obs}
	ctx := context.Background()
	if op.Padding {
		res, err := cmetiling.OptimizePaddingThenTiling(ctx, nest, opt)
		if err != nil {
			return outcome{}, err
		}
		plan := res.Plan
		return outcome{Tile: res.Tile, Plan: &plan, Miss: res.Combined.MissRatio,
			Repl: res.Combined.ReplacementRatio, Half: res.Combined.Half,
			Evals: res.GA.Evaluations, Gens: res.GA.Generations,
			Stopped: res.Stopped.String(), Quarantined: len(res.Quarantined)}, nil
	}
	res, err := cmetiling.OptimizeTiling(ctx, nest, opt)
	if err != nil {
		return outcome{}, err
	}
	return outcome{Tile: res.Tile, Miss: res.After.MissRatio, Repl: res.After.ReplacementRatio,
		Half: res.After.Half, Evals: res.GA.Evaluations, Gens: res.GA.Generations,
		Stopped: res.Stopped.String(), Quarantined: len(res.Quarantined)}, nil
}

func instance(op searchOp) (*ir.Nest, error) {
	k, ok := cmetiling.GetKernel(op.Kernel)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", op.Kernel)
	}
	return k.Instance(op.Size)
}

// coldWorkload is search-cold: one caller runs facade searches over the
// op cycle back to back. Nearly all of its time is candidate evaluation.
type coldWorkload struct {
	ops   []searchOp
	nests []*ir.Nest
	obs   *switchRec
}

func newCold(seed uint64) *coldWorkload {
	return &coldWorkload{ops: coldOps(seed), obs: &switchRec{}}
}

func (w *coldWorkload) name() string          { return wlSearchCold }
func (w *coldWorkload) clients() int          { return 1 }
func (w *coldWorkload) observer() *switchRec  { return w.obs }
func (w *coldWorkload) close()                {}
func (w *coldWorkload) replayOps() []searchOp { return w.ops }

// coldWarmup is the untimed search each set-up runs: the same for every
// seed, so set-up time does not depend on which op the cycle starts with.
var coldWarmup = searchOp{Kernel: "T2D", Size: 160, Cache: "8k", Seed: 1}

func (w *coldWorkload) setup() error {
	w.nests = make([]*ir.Nest, len(w.ops))
	for i, op := range w.ops {
		nest, err := instance(op)
		if err != nil {
			return err
		}
		w.nests[i] = nest
	}
	nest, err := instance(coldWarmup)
	if err != nil {
		return err
	}
	if _, err := facadeSearch(coldWarmup, nest, &counter{}); err != nil {
		return fmt.Errorf("warm-up %s: %w", coldWarmup, err)
	}
	return nil
}

// coldRun runs op i of the cycle under a fresh per-op counter, so the
// op's sampled points and walk steps are its own.
func (w *coldWorkload) coldRun(i int) (outcome, work, error) {
	rec := &counter{}
	out, err := facadeSearch(w.ops[i], w.nests[i], cmetiling.MultiRecorder(rec, w.obs))
	if err != nil {
		return outcome{}, work{}, err
	}
	c := rec.snapshot()
	// Every objective evaluation classifies the full sample, and each
	// search phase finalises with two more (untiled and best tile).
	phases := uint64(1)
	if w.ops[i].Padding {
		phases = 2
	}
	if want := uint64(cmetiling.PaperSampleSize) * (c.Evaluations + 2*phases); c.SampledPoints != want {
		return out, work{}, fmt.Errorf("sampled %d points for %d evaluations, want %d", c.SampledPoints, c.Evaluations, want)
	}
	return out, work{Hash: out.hash(), Evals: out.Evals, Gens: out.Gens,
		Points: c.SampledPoints, Walks: c.WalkSteps, Counted: true}, nil
}

func (w *coldWorkload) do(c, n int) opRecord {
	i := n % len(w.ops)
	op := w.ops[i]
	rec := opRecord{N: n, Ident: fmt.Sprintf("%d:%s", i, op)}
	rec.Start = time.Now()
	out, wk, err := w.coldRun(i)
	rec.Latency = time.Since(rec.Start)
	switch {
	case err != nil:
		rec.Fail = err.Error()
		return rec
	case out.Stopped != "converged":
		rec.Fail = "stopped: " + out.Stopped
	case out.Quarantined > 0:
		rec.Fail = "degraded"
	}
	rec.Work = wk
	rec.Answer = &answer{Kernel: op.Kernel, Size: op.Size, Cache: op.Cache, Seed: op.Seed, Tile: out.Tile,
		Plan: out.Plan, Miss: out.Miss, Repl: out.Repl, Half: out.Half}
	return rec
}

// verify requires every repeat of an op within the window to have done
// the identical work as its first run: the same result, GA evaluations
// and generations, sampled points and CME walk steps.
func (w *coldWorkload) verify(recs []opRecord, _ int) (int, error) {
	first := map[int]work{}
	repeats := 0
	for k := range recs {
		r := &recs[k]
		if r.Fail != "" {
			continue
		}
		i := r.N % len(w.ops)
		if ref, ok := first[i]; ok {
			r.Fail = r.Work.diff(ref)
			repeats++
		} else {
			first[i] = r.Work
		}
	}
	fmt.Printf("# work self-check: %d of %d ops compared with an earlier run of the same op\n", repeats, len(recs))
	return 0, nil
}
