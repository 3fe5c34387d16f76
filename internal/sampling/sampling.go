// Package sampling implements the statistical miss-ratio estimation of
// §2.3: instead of solving the Cache Miss Equations over the whole
// iteration space, a Simple Random Sample of iteration points is classified
// and the miss ratio is inferred with a binomial confidence interval. The
// paper uses a width-0.1 interval at 90% confidence, which requires only
// 164 iteration points regardless of problem size.
package sampling

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/cachesim"
	"repro/internal/cme"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/iterspace"
	"repro/internal/telemetry"
	"repro/internal/tiling"
)

// profileLabels gates pprof goroutine labelling on the evaluation workers.
// Off by default: labels cost an allocation per worker launch, which the
// zero-overhead telemetry contract forbids on unprofiled runs.
var profileLabels atomic.Bool

// SetProfileLabels toggles pprof labels (kernel, phase, rung) on the
// goroutines that classify sample points, so CPU profiles attribute
// classification time per kernel and per fidelity rung. The CLIs enable
// it alongside -pprof.
func SetProfileLabels(on bool) { profileLabels.Store(on) }

// PaperSampleSize is the sample size the paper derives for a confidence
// interval of width 0.1 at 90% confidence (§2.3).
const PaperSampleSize = 164

// PaperConfidence is the confidence level of every interval the searches
// report: the paper's 90% (§2.3).
const PaperConfidence = 0.90

// SampleSize returns the number of iteration points needed for a binomial
// confidence interval of the given total width and confidence level, using
// the worst-case variance p(1−p) = 1/4:
//
//	n = z² · p(1−p) / (width/2)²  with  z = Φ⁻¹(confidence).
//
// With width 0.1 and confidence 0.90 this reproduces the paper's 164 (up
// to rounding of z).
func SampleSize(width, confidence float64) int {
	if width <= 0 || width >= 2 || confidence <= 0 || confidence >= 1 {
		panic(fmt.Sprintf("sampling: bad interval parameters width=%v confidence=%v", width, confidence))
	}
	z := zQuantile(confidence)
	h := width / 2
	return int(math.Round(z * z * 0.25 / (h * h)))
}

// zQuantile returns Φ⁻¹(p), the standard normal quantile.
func zQuantile(p float64) float64 {
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// Estimate is a sampled miss-ratio estimate with its confidence interval.
type Estimate struct {
	// Stats holds the sampled outcome counts (Accesses = sample points ×
	// references).
	Stats cachesim.Stats
	// MissRatio and ReplacementRatio are the point estimates (interval
	// centres).
	MissRatio        float64
	ReplacementRatio float64
	// Half is the confidence half-width actually achieved for the miss
	// ratio at the given confidence.
	Half       float64
	Confidence float64
	Points     int
}

func (e Estimate) String() string {
	return fmt.Sprintf("miss %.2f%% ±%.2f%% (repl %.2f%%) from %d points",
		100*e.MissRatio, 100*e.Half, 100*e.ReplacementRatio, e.Points)
}

// Interval returns the confidence interval for the total miss ratio.
func (e Estimate) Interval() (lo, hi float64) {
	lo = math.Max(0, e.MissRatio-e.Half)
	hi = math.Min(1, e.MissRatio+e.Half)
	return lo, hi
}

// FromStats wraps already-sampled counts in an Estimate, deriving the
// ratios and the confidence half-width. points is the number of iteration
// points the counts came from.
func FromStats(st cachesim.Stats, points int, confidence float64) Estimate {
	return finish(st, points, confidence)
}

// finish derives the ratios and half-width from sampled counts. The
// binomial model is over the independently drawn iteration POINTS (the
// accesses of one point are correlated), matching the paper's derivation
// of the 164-point sample size.
func finish(st cachesim.Stats, points int, confidence float64) Estimate {
	e := Estimate{Stats: st, Confidence: confidence, Points: points}
	if st.Accesses > 0 && points > 0 {
		e.MissRatio = st.MissRatio()
		e.ReplacementRatio = st.ReplacementRatio()
		p := e.MissRatio
		e.Half = zQuantile(confidence) * math.Sqrt(p*(1-p)/float64(points))
	}
	return e
}

// EstimateMissRatio draws n iteration points uniformly (simple random
// sampling, with replacement) from the analyzer's iteration space,
// classifies every reference at each point with the exact CME point solver
// and returns the inferred ratios.
func EstimateMissRatio(an *cme.Analyzer, n int, confidence float64, rng *rand.Rand) Estimate {
	sp := an.Space()
	p := make([]int64, sp.NumCoords())
	var st cachesim.Stats
	for i := 0; i < n; i++ {
		sp.Sample(rng, p)
		an.ClassifyAll(p, &st)
	}
	return finish(st, n, confidence)
}

// EstimatePerRef samples n iteration points and returns one estimate per
// body reference, in body order — the per-reference locality view the
// cmereport tool prints.
func EstimatePerRef(an *cme.Analyzer, n int, confidence float64, rng *rand.Rand) []Estimate {
	sp := an.Space()
	nrefs := len(an.Nest().Refs)
	p := make([]int64, sp.NumCoords())
	stats := make([]cachesim.Stats, nrefs)
	for i := 0; i < n; i++ {
		sp.Sample(rng, p)
		for r := 0; r < nrefs; r++ {
			stats[r].Accesses++
			switch an.Classify(p, r) {
			case cachesim.Hit:
				stats[r].Hits++
			case cachesim.CompulsoryMiss:
				stats[r].Compulsory++
			case cachesim.ReplacementMiss:
				stats[r].Replacement++
			}
		}
	}
	out := make([]Estimate, nrefs)
	for r := range out {
		out[r] = finish(stats[r], n, confidence)
	}
	return out
}

// CompareSampleSizes estimates the untiled miss ratio of a nest twice —
// with small and with large samples — used to validate the §2.3 claim
// that 164 points suffice.
func CompareSampleSizes(nest *ir.Nest, cfg cache.Config, small, large int, seed uint64) (Estimate, Estimate, error) {
	box, err := tiling.Box(nest)
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	an, err := cme.NewAnalyzer(nest, box, cfg)
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	rs := rand.New(rand.NewPCG(seed, seed^0x1234))
	rl := rand.New(rand.NewPCG(seed^0x9999, seed))
	return EstimateMissRatio(an, small, PaperConfidence, rs), EstimateMissRatio(an, large, PaperConfidence, rl), nil
}

// Sample is a fixed set of original-space iteration points, drawn once and
// reusable across candidate tilings. Using common points for every
// candidate (common random numbers) makes the genetic algorithm's fitness
// deterministic within a search and reduces comparison variance: tiling
// permutes the iteration space, so a uniform sample of the original box is
// a uniform sample of every tiled space.
type Sample struct {
	Points [][]int64
}

// Draw draws n original-space points uniformly from the box.
func Draw(box *iterspace.Box, n int, rng *rand.Rand) *Sample {
	s := &Sample{Points: make([][]int64, n)}
	for i := range s.Points {
		p := make([]int64, box.NumCoords())
		box.Sample(rng, p)
		s.Points[i] = p
	}
	return s
}

// Range returns a view of the sample holding points [lo, hi) — the unit
// the multi-fidelity ladder evaluates: rung r extends a candidate from
// its previous prefix to the next, so no point is classified twice. The
// view shares the backing points (the full range is s itself); it must
// not be mutated.
func (s *Sample) Range(lo, hi int) *Sample {
	if lo == 0 && hi == len(s.Points) {
		return s
	}
	return &Sample{Points: s.Points[lo:hi]}
}

// Fingerprint returns a canonical content hash of the sample: two samples
// fingerprint equally iff they hold the same points in the same order.
// Because the fitness of a candidate is a pure function of (nest, cache
// geometry, sample, genome), the fingerprint is what makes sampled
// evaluation results safely shareable across searches and requests — two
// searches over the same nest that drew the same sample may exchange
// results no matter which seeds or budgets drove them.
func (s *Sample) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	w(int64(len(s.Points)))
	for _, p := range s.Points {
		w(int64(len(p)))
		for _, c := range p {
			w(c)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Evaluate classifies every reference at every sampled point under the
// analyzer's traversal order and returns the aggregate counts.
func (s *Sample) Evaluate(an *cme.Analyzer) cachesim.Stats {
	sp := an.Space()
	p := make([]int64, sp.NumCoords())
	var st cachesim.Stats
	for _, orig := range s.Points {
		sp.FromOriginal(orig, p)
		an.ClassifyAll(p, &st)
	}
	return st
}

// EvaluateWith is Evaluate fanned out over the caller's analyzers (all
// observing the same nest, space and cache), one goroutine per analyzer,
// each classifying a contiguous slice of the sample; it is the package's
// one parallel evaluation path. The counts are sums over the same points,
// so the result equals Evaluate at every analyzer count and parallelism
// never perturbs a search result. A single analyzer, or a sample under 64
// points, is classified serially on ans[0]. Callers that Rebind and reuse
// a fixed analyzer pool across candidates pay no per-call Clone.
//
// It honours ctx cancellation between points and converts a panic in any
// worker into an error instead of crashing the process. Every worker
// drains before it returns, and the first failure is reported; on error
// the returned counts are partial and must be discarded. A run that
// classified every point before ctx expired returns its complete result
// with a nil error.
//
// A fault-injection plan threaded through ctx (faultinject.With) is
// consulted once at entry, before any worker starts: each evaluation
// draws one eval.stall and one eval.panic hit (DrawEntryFaults) and
// carries them out here, in the serial section, so their hit counts equal
// the number of evaluation batches regardless of the worker count — which
// batch a scripted fault lands on is deterministic. Any panic, injected
// or genuine, surfaces as an error, never a crash.
func (s *Sample) EvaluateWith(ctx context.Context, ans []*cme.Analyzer) (cachesim.Stats, error) {
	return s.evaluateWith(ctx, ans, 0)
}

// EntryFaults are one evaluation's drawn entry hits: eval.stall, then
// eval.panic. EvaluateWith draws and runs its own. A caller evaluating
// several candidates concurrently draws each candidate's hits in a fixed
// order with DrawEntryFaults, runs them where that candidate is evaluated,
// and evaluates under faultinject.Without so no hit is drawn twice.
type EntryFaults struct{ stall, panic *faultinject.Hit }

// DrawEntryFaults draws one evaluation's entry hits from the plan ctx
// carries (none without a plan).
func DrawEntryFaults(ctx context.Context) EntryFaults {
	plan := faultinject.From(ctx)
	if plan == nil {
		return EntryFaults{}
	}
	return EntryFaults{plan.Draw(faultinject.EvalStall), plan.Draw(faultinject.EvalPanic)}
}

// Run carries the drawn hits out: the stall (honouring ctx), then, if the
// stall returned no error, the panic, which comes back as an error.
func (f EntryFaults) Run(ctx context.Context) (err error) {
	if f == (EntryFaults{}) {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sampling: evaluation panic: %v", r)
		}
	}()
	if err := f.stall.Do(ctx); err != nil {
		return err
	}
	return f.panic.Do(ctx)
}

// evalScratch is one parallel evaluation's per-worker result arrays,
// pooled so the multi-worker path stays near-zero-alloc across the
// thousands of batches a search runs.
type evalScratch struct {
	partial []cachesim.Stats
	errs    []error
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// take sizes the scratch for n workers, zeroing reused entries.
func (sc *evalScratch) take(n int) {
	if cap(sc.partial) < n {
		sc.partial = make([]cachesim.Stats, n)
		sc.errs = make([]error, n)
		return
	}
	sc.partial = sc.partial[:n]
	sc.errs = sc.errs[:n]
	for i := range sc.partial {
		sc.partial[i] = cachesim.Stats{}
		sc.errs[i] = nil
	}
}

// evaluateWith is the core of EvaluateWith; rung (1-based, 0 = a
// full-fidelity evaluation) tags the workers' pprof labels so profiles
// attribute time per fidelity rung.
func (s *Sample) evaluateWith(ctx context.Context, ans []*cme.Analyzer, rung int) (st cachesim.Stats, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(ans) == 0 {
		return cachesim.Stats{}, fmt.Errorf("sampling: EvaluateWith needs at least one analyzer")
	}
	defer func() {
		if r := recover(); r != nil {
			st, err = cachesim.Stats{}, fmt.Errorf("sampling: evaluation panic: %v", r)
		}
	}()
	if ferr := DrawEntryFaults(ctx).Run(ctx); ferr != nil {
		return cachesim.Stats{}, ferr
	}
	n := len(s.Points)
	workers := len(ans)
	if workers > n {
		workers = n
	}
	labels := profileLabels.Load()
	if workers < 2 || n < 64 {
		err = classifyLabelled(ctx, labels, rung, ans[0], s.Points, &st)
		return st, err
	}
	sc := scratchPool.Get().(*evalScratch)
	sc.take(workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			sc.errs[w] = classifyLabelled(ctx, labels, rung, ans[w], s.Points[lo:hi], &sc.partial[w])
		}(w, lo, hi)
	}
	wg.Wait()
	for _, ps := range sc.partial {
		st.Add(ps)
	}
	err = nil
	for _, werr := range sc.errs {
		if werr != nil {
			err = werr
			break
		}
	}
	// Every worker has drained (wg.Wait above), so the scratch can be
	// recycled; a panic path simply drops it.
	scratchPool.Put(sc)
	if err != nil {
		return st, err
	}
	// Every worker finished its slice: the result is complete and valid
	// even if ctx expired after the last point was classified.
	return st, nil
}

// EvaluateObserved is EvaluateWith plus telemetry: on success it emits one
// EvaluationBatch event and the matching counter deltas (sampled points,
// walk steps, classified accesses, cap hits) to obs. The walk accounting
// is computed as before/after deltas over the supplied analyzers, so it is
// correct even when the caller Rebinds pooled analyzers (which zeroes
// their counters) between batches. A nil obs is exactly EvaluateWith —
// the hot path pays only a nil check. Failed or cancelled evaluations
// record nothing: their partial counts are discarded by the caller too.
//
// The batch is tagged with its 1-based island index (0 = single
// population), so a stream consumer can attribute evaluation work per
// deme, and with its 1-based fidelity rung (0 = full-fidelity
// evaluation), which also labels the workers' pprof samples. The emitted
// batch covers exactly this sample view's points — for a ladder
// extension, the newly classified range, not the cumulative prefix.
func (s *Sample) EvaluateObserved(ctx context.Context, ans []*cme.Analyzer, obs telemetry.Recorder, island, rung int) (cachesim.Stats, error) {
	if obs == nil {
		return s.evaluateWith(ctx, ans, rung)
	}
	before := make([]cme.WalkCounts, len(ans))
	for i, an := range ans {
		before[i] = an.WalkCounts()
	}
	st, err := s.evaluateWith(ctx, ans, rung)
	if err != nil {
		return st, err
	}
	var wc cme.WalkCounts
	for i, an := range ans {
		wc = wc.Plus(an.WalkCounts().Sub(before[i]))
	}
	obs.Event(telemetry.EvaluationBatch{
		Island:      island,
		Points:      len(s.Points),
		Accesses:    st.Accesses,
		Hits:        st.Hits,
		Compulsory:  st.Compulsory,
		Replacement: st.Replacement,
		WalkSteps:   wc.Steps,
		Rung:        rung,
	})
	obs.Add(telemetry.Counters{
		SampledPoints:      uint64(len(s.Points)),
		WalkSteps:          wc.Steps,
		ClassifiedAccesses: wc.Classified,
		WalkCapHits:        wc.CapHits,
	})
	return st, nil
}

// classifyLabelled is classifyRange under the profile labels when they
// are on.
func classifyLabelled(ctx context.Context, labels bool, rung int, an *cme.Analyzer, points [][]int64, st *cachesim.Stats) (err error) {
	if !labels {
		return classifyRange(ctx, an, points, st)
	}
	pprof.Do(ctx, pprof.Labels(
		"kernel", an.Nest().Name,
		"phase", "evaluate",
		"rung", strconv.Itoa(rung),
	), func(ctx context.Context) {
		err = classifyRange(ctx, an, points, st)
	})
	return err
}

// classifyRange classifies one worker's slice of the sample, polling ctx
// every few points and recovering a panicking analyzer into an error.
func classifyRange(ctx context.Context, an *cme.Analyzer, points [][]int64, st *cachesim.Stats) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sampling: evaluation worker panic: %v", r)
		}
	}()
	sp := an.Space()
	// Each worker owns its analyzer, so the analyzer-cached scratch point
	// is private to this loop; reusing it removes the last per-batch
	// allocation on the hot path.
	p := an.PointScratch()
	for i, orig := range points {
		if i&31 == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		sp.FromOriginal(orig, p)
		an.ClassifyAll(p, st)
	}
	return nil
}
