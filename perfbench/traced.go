package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// endToEnd and perLayer are the metric names a run prints; the self-test
// holds them equal to BENCHMARK.json.
var endToEnd = []string{
	"setup_s", "ops_per_s", "p50_ms", "p90_ms", "cpu_ms_per_op", "peak_rss_mb",
	"ok_pct", "repl_after_pct", "exact_repl_pct", "inside_ci_pct",
}

var perLayer = []struct{ name, unit string }{
	{"cme.classify_ns", "ns"}, {"cme.walk_steps_per_access", "count"},
	{"cme.new_analyzer_us", "us"}, {"cme.rebind_us", "us"},
	{"sampling.eval_us", "us"}, {"sampling.eval_us_1w", "us"},
	{"sampling.parallel_speedup", "x"}, {"sampling.points_per_search", "count"},
	{"ga.evaluations_per_search", "count"}, {"ga.generations_per_search", "count"},
	{"ga.memo_hit_pct", "%"}, {"ga.self_ms_per_search", "ms"}, {"ga.objective_pct", "%"},
	{"core.objective_setup_ms", "ms"}, {"core.classified_accesses_per_search", "count"},
	{"evalcache.hit_pct", "%"}, {"evalcache.pool_hit_pct", "%"},
	{"evalcache.get_ns", "ns"}, {"evalcache.put_ns", "ns"},
	{"evalcache.stored_per_search", "count"}, {"evalcache.evicted_per_search", "count"},
	{"server.handler_us", "us"}, {"server.transport_us", "us"},
	{"server.overhead_ms", "ms"}, {"server.result_cache_hit_pct", "%"},
	{"journal.append_us", "us"}, {"journal.records_per_op", "count"},
	{"journal.bytes_per_op", "count"}, {"journal.replay_ms", "ms"},
	{"share.classify_pct", "%"}, {"share.rebind_pct", "%"}, {"share.ga_pct", "%"},
	{"share.setup_pct", "%"}, {"share.other_pct", "%"},
	{"trace.ops_per_s_untraced", "1/s"}, {"trace.ops_per_s_traced", "1/s"},
	{"trace.overhead_pct", "%"},
}

// journaled is a workload whose window writes a tilingd journal.
type journaled interface {
	journalDir() string
	journalMark() (records int, bytes int64)
}

func (b *serveBase) journalMark() (int, int64) { return b.records0, b.bytes0 }

// tracedRun is the separate traced run: the window's first half runs
// untraced, the second half with an in-memory capture attached to the
// program's Observer and a span around every op; then the layer replays
// time each layer's public functions over the workload's own searches.
func tracedRun(w workload, length time.Duration, dir string, seed uint64) (result, error) {
	half := length / 2
	tr := newTracer()
	startA := time.Now()
	winA := window(w, make([]int, w.clients()), startA.Add(half), nil)
	rateA := float64(winA.ops()) / winA.wall(startA).Seconds()

	c := newCapture()
	w.observer().attach(c)
	startB := time.Now()
	winB := window(w, winA.next, startB.Add(half), tr)
	rateB := float64(winB.ops()) / winB.wall(startB).Seconds()
	w.observer().attach(nil)

	ops := winA.ops() + winB.ops()
	res, err := checked(w, append(winA.recs, winB.recs...), ops)
	if err != nil {
		return result{}, err
	}
	recsB := winB.recs

	d := &layerReplay{tr: tr, dir: dir, m: map[string]float64{}}
	m := d.m
	windowLayers(m, recsB, c)
	var acc replayAcc
	var replay []searchOp
	for _, op := range w.replayOps() {
		if !op.Padding && len(replay) < replaySearches {
			replay = append(replay, op)
		}
	}
	for k, op := range replay {
		if err := d.searchReplay(k, op, &acc); err != nil {
			return result{}, fmt.Errorf("layer replay %s: %w", op, err)
		}
	}
	if err := d.serverReplay(replay); err != nil {
		return result{}, err
	}
	if j, ok := w.(journaled); ok {
		// The serve workloads' own journal replaces the replay server's.
		records, size, err := journalSize(j.journalDir())
		if err != nil {
			return result{}, err
		}
		r0, b0 := j.journalMark()
		m["journal.records_per_op"] = ratio(float64(records-r0), float64(ops))
		m["journal.bytes_per_op"] = ratio(float64(size-b0), float64(ops))
		if m["journal.append_us"], m["journal.replay_ms"], err = d.journalReplay(j.journalDir()); err != nil {
			return result{}, err
		}
	}

	m["cme.new_analyzer_us"] = ratio(us(acc.newAnalyzer), float64(acc.newAnalyzers))
	m["cme.rebind_us"] = ratio(us(acc.rebind), float64(acc.rebinds))
	m["cme.classify_ns"] = ratio(float64(acc.eval1w), float64(acc.classified))
	if m["cme.walk_steps_per_access"] == 0 {
		m["cme.walk_steps_per_access"] = ratio(float64(acc.steps), float64(acc.classified))
	}
	m["sampling.eval_us"] = ratio(us(acc.evalPool), float64(acc.evals))
	m["sampling.eval_us_1w"] = ratio(us(acc.eval1w), float64(acc.evals))
	m["sampling.parallel_speedup"] = ratio(m["sampling.eval_us_1w"], m["sampling.eval_us"])
	m["ga.self_ms_per_search"] = ratio(ms(acc.gaSelf), float64(len(replay)))
	m["ga.objective_pct"] = 100 * ratio(float64(acc.objective), float64(acc.gaRun))
	m["core.objective_setup_ms"] = ratio(ms(acc.setup), float64(len(replay)))
	m["evalcache.get_ns"] = ratio(float64(acc.get), float64(acc.cacheOps))
	m["evalcache.put_ns"] = ratio(float64(acc.put), float64(acc.cacheOps))

	sh := d.share
	pct := func(x time.Duration) float64 { return 100 * ratio(float64(x), float64(sh.total)) }
	m["share.classify_pct"] = pct(sh.classify)
	m["share.rebind_pct"] = pct(sh.rebind)
	m["share.ga_pct"] = pct(sh.ga)
	m["share.setup_pct"] = pct(sh.setup)
	m["share.other_pct"] = 100 - m["share.classify_pct"] - m["share.rebind_pct"] - m["share.ga_pct"] - m["share.setup_pct"]
	m["trace.ops_per_s_untraced"] = rateA
	m["trace.ops_per_s_traced"] = rateB
	m["trace.overhead_pct"] = 100 * (ratio(rateA, rateB) - 1)

	fmt.Printf("# %s traced: %d ops untraced at %.3f/s, %d traced at %.3f/s (tracing overhead %+.1f%%)\n",
		w.name(), winA.ops(), rateA, winB.ops(), rateB, m["trace.overhead_pct"])
	fmt.Printf("# share of a search replayed layer by layer (%d searches, mean %.1f ms):\n", sh.searches,
		ratio(ms(sh.total), float64(sh.searches)))
	for _, s := range []string{"classify", "rebind", "ga", "setup", "other"} {
		fmt.Printf("#   %-9s %6.1f%%\n", s, m["share."+s+"_pct"])
	}
	total, self, count := tr.layerTime()
	var names []string
	for name := range total {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# spans (%s): name, count, total ms, self ms\n", spansPath(w.name(), seed))
	for _, name := range names {
		fmt.Printf("#   %-28s %7d %11.2f %11.2f\n", name, count[name], ms(total[name]), ms(self[name]))
	}
	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", l.name)
		}
		res.Metrics[l.name] = metric{Value: v, Unit: l.unit}
		fmt.Printf("#   %-36s %14.4f %s\n", l.name, v, l.unit)
	}
	if err := tr.write(spansPath(w.name(), seed)); err != nil {
		return result{}, err
	}
	return res, nil
}

// windowLayers derives the per-layer counts of the traced half from the
// captured telemetry and the ops' own results.
func windowLayers(m map[string]float64, recs []opRecord, c *capture) {
	cnt := c.snapshot()
	var searches, evals, gens float64
	for _, r := range recs {
		if r.Work.Gens > 0 {
			searches++
			evals += float64(r.Work.Evals)
			gens += float64(r.Work.Gens)
		}
	}
	m["ga.evaluations_per_search"] = ratio(evals, searches)
	m["ga.generations_per_search"] = ratio(gens, searches)
	m["ga.memo_hit_pct"] = 100 * ratio(float64(cnt.MemoHits), float64(cnt.MemoHits+cnt.Evaluations))
	m["sampling.points_per_search"] = ratio(float64(cnt.SampledPoints), searches)
	m["core.classified_accesses_per_search"] = ratio(float64(cnt.ClassifiedAccesses), searches)
	m["cme.walk_steps_per_access"] = ratio(float64(cnt.WalkSteps), float64(cnt.ClassifiedAccesses))

	fh, fm := c.tierCounts("fitness")
	sh, sm := c.tierCounts("stats")
	ph, pm := c.tierCounts("pool")
	m["evalcache.hit_pct"] = 100 * ratio(float64(fh+sh), float64(fh+sh+fm+sm))
	m["evalcache.pool_hit_pct"] = 100 * ratio(float64(ph), float64(ph+pm))
	// Every fitness or stats miss stores one entry; the size bound evicts.
	m["evalcache.stored_per_search"] = ratio(float64(fm+sm), searches)
	m["evalcache.evicted_per_search"] = ratio(float64(cnt.EvalCacheEvictions), searches)

	var done, hits float64
	for _, e := range c.lifecycle() {
		if d, ok := e.E.(telemetry.RequestDone); ok {
			done++
			if d.CacheHit {
				hits++
			}
		}
	}
	m["server.result_cache_hit_pct"] = 100 * ratio(hits, done)
}
