package main

import (
	"fmt"

	cmetiling "repro"
	"repro/internal/cliutil"
	"repro/internal/ir"
	"repro/internal/padding"
	"repro/internal/tiling"
)

// answer is one returned tile with the sampled After estimate it was
// reported with.
type answer struct {
	Kernel string
	Size   int64
	Cache  string
	Seed   uint64
	Tile   []int64
	Order  []int         // tile-loop order, for mode "order"
	Plan   *padding.Plan // padding, for the padding-then-tiling search
	Miss   float64
	Repl   float64
	Half   float64
}

// key identifies a distinct answer: the search that produced it and the
// tile. Two searches that return the same tile still count twice, since
// each reports its own sampled estimate.
func (a *answer) key() string {
	return fmt.Sprintf("%s/%d/%s/s%d/%v/%v/%v", a.Kernel, a.Size, a.Cache, a.Seed, a.Tile, a.Order, a.Plan)
}

// quality is the oracle's verdict over the distinct returned tiles.
type quality struct {
	Tiles     int
	ReplAfter float64 // mean sampled replacement ratio, %
	ExactRepl float64 // mean exact replacement ratio, %
	InsideCI  float64 // share whose exact miss ratio is inside the interval, %
}

// transformed rebuilds the nest the answer describes: padded, then tiled
// (in the reported tile-loop order).
func (a *answer) transformed() (*ir.Nest, error) {
	nest, err := instance(searchOp{Kernel: a.Kernel, Size: a.Size})
	if err != nil {
		return nil, err
	}
	if a.Plan != nil {
		if nest, err = padding.Apply(nest, *a.Plan); err != nil {
			return nil, err
		}
	}
	if a.Order != nil {
		tiled, _, err := tiling.ApplyPermuted(nest, a.Tile, a.Order)
		return tiled, err
	}
	tiled, _, err := tiling.Apply(nest, a.Tile)
	return tiled, err
}

// score simulates every distinct answer exactly (the trace-driven LRU
// simulator, never timed) and compares it with the sampled estimate the
// program reported: the paper's §2.3 claim, end to end.
func score(answers []*answer) (quality, error) {
	seen := map[string]bool{}
	var q quality
	var repl, exact, inside float64
	for _, a := range answers {
		if a == nil || seen[a.key()] {
			continue
		}
		seen[a.key()] = true
		nest, err := a.transformed()
		if err != nil {
			return q, fmt.Errorf("oracle: %s: %w", a.key(), err)
		}
		cfg, err := cliutil.ParseCache(a.Cache)
		if err != nil {
			return q, err
		}
		st := cmetiling.Simulate(nest, cfg)
		q.Tiles++
		repl += a.Repl
		exact += st.ReplacementRatio()
		if m := st.MissRatio(); m >= a.Miss-a.Half-1e-12 && m <= a.Miss+a.Half+1e-12 {
			inside++
		}
	}
	if q.Tiles == 0 {
		return q, fmt.Errorf("oracle: no answer to score")
	}
	n := float64(q.Tiles)
	q.ReplAfter, q.ExactRepl, q.InsideCI = 100*repl/n, 100*exact/n, 100*inside/n
	return q, nil
}

func recAnswers(recs []opRecord) []*answer {
	var out []*answer
	for _, r := range recs {
		if r.Fail == "" && r.Answer != nil {
			out = append(out, r.Answer)
		}
	}
	return out
}

func (w *coldWorkload) answers(recs []opRecord) []*answer   { return recAnswers(recs) }
func (w *searchWorkload) answers(recs []opRecord) []*answer { return recAnswers(recs) }
func (w *replayWorkload) answers([]opRecord) []*answer      { return w.warmResp }
