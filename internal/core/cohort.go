package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cachesim"
	"repro/internal/cme"
	"repro/internal/ga"
	"repro/internal/ir"
	"repro/internal/iterspace"
	"repro/internal/sampling"
	"repro/internal/telemetry"
)

// cohort is one deme's ga.BatchEvaluator: it classifies a generation's
// fresh candidates, or one fidelity rung's, concurrently over the rung's
// sample range, each on one analyzer of the evaluator's pool (worker w
// owns pool[w]), and holds every outcome until the deme commits it in
// batch order. Everything a candidate does outside its own analyzer
// happens serially in batch order: decoding, the shared stats tier and
// the fault-plan draws before the fan-out; telemetry, failure handling
// and stats stores at its commit. So the results, the event stream and
// the fault schedule are those of serial evaluation at any worker count.
type cohort struct {
	ev     *evaluator
	guard  *evalGuard
	label  string
	decode func(*evaluator, []int64) (*ir.Nest, iterspace.Space, error)

	ctx  context.Context
	rung ga.Rung // the sample range, resolved by evaluator.span
	jobs []cohortJob
	run  []int // indices of the jobs to classify, in batch order
	next atomic.Int32
}

// cohortJob is one candidate of a cohort.
type cohortJob struct {
	values []int64
	nest   *ir.Nest
	space  iterspace.Space
	// key is the candidate's shared stats-tier key ("" when not
	// shareable). stored marks statistics already recalled from or stored
	// in the tier; repeat marks a key an earlier job of the cohort holds,
	// so this one looks it up again after that job's commit.
	key    string
	stored bool
	repeat bool
	faults sampling.EntryFaults
	built  bool // the pool was built for this candidate: a pool miss
	st     cachesim.Stats
	err    error
	rec    recording
}

// Evaluate implements ga.BatchEvaluator.
func (c *cohort) Evaluate(ctx context.Context, values [][]int64, r ga.Rung) {
	e := c.ev
	c.ctx, c.rung = ctx, e.span(r)
	c.run = c.run[:0]
	if cap(c.jobs) < len(values) {
		c.jobs = make([]cohortJob, len(values))
	}
	c.jobs = c.jobs[:len(values)]
	var keys map[string]bool
	for i, v := range values {
		j := &c.jobs[i]
		*j = cohortJob{values: v, rec: recording{log: j.rec.log[:0]}}
		if j.nest, j.space, j.err = c.decodeSafe(v); j.err != nil {
			continue
		}
		if j.key = e.statsKey(j.nest, j.space, c.rung); j.key != "" {
			if j.repeat = keys[j.key]; j.repeat {
				continue
			}
			if keys == nil {
				keys = map[string]bool{}
			}
			keys[j.key] = true
			if st, ok := e.shared.GetStats(j.key); ok {
				j.st, j.stored = st, true
				continue
			}
		}
		c.run = append(c.run, i)
	}
	if len(c.run) > 0 {
		c.fanOut(ctx)
	}
}

// decodeSafe decodes a candidate, turning a panic into its error.
func (c *cohort) decodeSafe(v []int64) (nest *ir.Nest, space iterspace.Space, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: objective panic: %v", r)
		}
	}()
	return c.decode(c.ev, v)
}

// fanOut classifies the jobs in c.run over the pool's workers, each
// worker taking the next unclaimed job.
func (c *cohort) fanOut(ctx context.Context) {
	e := c.ev
	e.mu.Lock()
	defer e.mu.Unlock()
	// One pool miss builds the pool for the first job.
	first := &c.jobs[c.run[0]]
	first.built = e.pool[0] == nil
	if err := e.fill(first.nest, first.space); err != nil {
		first.err = err
	}
	for _, k := range c.run {
		c.jobs[k].faults = sampling.DrawEntryFaults(ctx)
	}
	c.next.Store(0)
	workers := min(len(e.pool), len(c.run))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.work(ctx, w)
		}(w)
	}
	c.work(ctx, 0)
	wg.Wait()
}

// work is worker w's loop: classify the next unclaimed job on pool[w]
// until none is left.
func (c *cohort) work(ctx context.Context, w int) {
	for {
		k := int(c.next.Add(1)) - 1
		if k >= len(c.run) {
			return
		}
		if j := &c.jobs[c.run[k]]; j.err == nil {
			j.st, j.err = c.ev.classify(ctx, w, j.nest, j.space, c.rung, c.recorder(j), j.faults, j.built)
		}
	}
}

// recorder is where a job's telemetry goes until its commit (nil when the
// search is unobserved).
func (c *cohort) recorder(j *cohortJob) telemetry.Recorder {
	if c.ev.obs == nil {
		return nil
	}
	return &j.rec
}

// Commit implements ga.BatchEvaluator: it replays job i's telemetry,
// applies the failure policy and stores its statistics in the shared
// tier. A repeat of an earlier job's stats key looks the key up again
// now, as serial evaluation would, and evaluates the same range alone on
// a miss.
func (c *cohort) Commit(i int) (float64, bool) {
	e := c.ev
	j := &c.jobs[i]
	if j.repeat {
		j.st, j.err = e.evalRange(c.ctx, j.nest, j.space, c.rung)
		j.stored = true
	}
	if e.obs != nil {
		j.rec.replay(e.obs)
	}
	if j.err != nil {
		return c.guard.fail(c.label, j.values, j.err), cancelled(j.err)
	}
	if j.key != "" && !j.stored {
		e.shared.PutStats(j.key, j.st)
	}
	return float64(j.st.Replacement), false
}

// fill gives every empty pool slot an analyzer: pool[0], when empty, is
// built for (nest, space), and the other empty slots clone it. A lone
// evaluation binds pool[0] alone, so the slots it left empty see what
// pool[0] analyses, as one worker would. Callers hold e.mu.
func (e *evaluator) fill(nest *ir.Nest, space iterspace.Space) error {
	if e.pool[0] == nil {
		an, err := cme.NewAnalyzer(nest, space, e.cfg)
		if err != nil {
			return err
		}
		e.pool[0] = an
	}
	for w, an := range e.pool {
		if an == nil {
			e.pool[w] = e.pool[0].Clone()
		}
	}
	return nil
}

// recording holds one candidate's telemetry, in emission order, until
// its commit replays it to the search's observer.
type recording struct{ log []recorded }

// recorded is one held event, or a counter delta when ev is nil.
type recorded struct {
	ev telemetry.Event
	c  telemetry.Counters
}

// Event implements telemetry.Recorder.
func (r *recording) Event(ev telemetry.Event) { r.log = append(r.log, recorded{ev: ev}) }

// Add implements telemetry.Recorder.
func (r *recording) Add(c telemetry.Counters) { r.log = append(r.log, recorded{c: c}) }

// replay forwards the held telemetry to obs and empties the log.
func (r *recording) replay(obs telemetry.Recorder) {
	for _, x := range r.log {
		if x.ev != nil {
			obs.Event(x.ev)
		} else {
			obs.Add(x.c)
		}
	}
	r.log = r.log[:0]
}
