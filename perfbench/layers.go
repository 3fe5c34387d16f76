package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cachesim"
	"repro/internal/cliutil"
	"repro/internal/cme"
	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/ga"
	"repro/internal/iterspace"
	"repro/internal/journal"
	"repro/internal/sampling"
	"repro/internal/telemetry"
)

// replaySearches is how many of a workload's searches the layer replays
// re-run layer by layer.
const replaySearches = 4

// layerReplay replays a workload's inputs through each layer's public
// functions, timing every call as a span.
type layerReplay struct {
	tr  *tracer
	dir string
	m   map[string]float64
	// share accumulates the per-search split of the replayed searches.
	share struct {
		total, classify, rebind, ga, setup time.Duration
		searches                           int
	}
}

// searchReplay re-runs one tile search the way core.OptimizeTiling does
// (the objective from core.TileObjective, the paper's GA configuration
// with the same mutation floor and seed individuals), then the same GA
// run with a lookup objective (GA self time) and with an objective built
// from the CME analyzer and the sampling layer, and its fitness values
// through the evaluation cache.
func (d *layerReplay) searchReplay(k int, op searchOp, acc *replayAcc) error {
	ctx := context.Background()
	nest, err := instance(op)
	if err != nil {
		return err
	}
	cfg, err := cliutil.ParseCache(op.Cache)
	if err != nil {
		return err
	}
	root := d.tr.begin("replay.search", 0, k)
	defer d.tr.end(root)

	var obj func([]int64) float64
	var box *iterspace.Box
	setup := d.tr.timed("core.TileObjective", root, k, func(int) {
		obj, box, err = core.TileObjective(nest, core.Options{Cache: cfg, Seed: op.Seed})
	})
	if err != nil {
		return err
	}
	uppers := make([]int64, nest.Depth())
	untiled := make([]int64, nest.Depth())
	ones := make([]int64, nest.Depth())
	for i := range uppers {
		uppers[i], untiled[i], ones[i] = box.Extent(i), box.Extent(i), 1
	}
	spec := ga.NewTileSpec(uppers)
	gcfg := ga.PaperConfig(op.Seed)
	if pm := 1.0 / (2 * float64(spec.TotalBits())); gcfg.MutationProb < pm {
		gcfg.MutationProb = pm
	}
	heur, err := core.HeuristicTile(nest, cfg)
	if err != nil {
		return err
	}
	gcfg.SeedValues = [][]int64{heur, untiled, ones}

	values := map[string]float64{}
	var cands [][]int64
	var objTime time.Duration
	var gaErr error
	runTime := d.tr.timed("ga.Run", root, k, func(id int) {
		_, gaErr = ga.Run(ctx, spec, func(v []int64) float64 {
			var f float64
			objTime += d.tr.timed("core.objective", id, k, func(int) { f = obj(v) })
			values[fmt.Sprint(v)] = f
			cands = append(cands, append([]int64(nil), v...))
			return f
		}, gcfg)
	})
	if gaErr != nil {
		return gaErr
	}
	missing := 0
	selfTime := d.tr.timed("ga.Run.lookup", root, k, func(int) {
		_, gaErr = ga.Run(ctx, spec, func(v []int64) float64 {
			f, ok := values[fmt.Sprint(v)]
			if !ok {
				missing++
			}
			return f
		}, gcfg)
	})
	if gaErr != nil {
		return gaErr
	}
	if missing > 0 {
		return fmt.Errorf("GA replay of %s left its recorded trajectory (%d lookups missed)", op, missing)
	}

	// Layer replay: the same GA run once more, its objective rebuilt from
	// the layers core composes (the evaluator's pool of one analyzer per
	// default worker, rebound to each candidate, then the fixed sample
	// classified through it). One run thus splits into GA, rebind and
	// classify time; its values must equal core's.
	rng := rand.New(rand.NewPCG(op.Seed, op.Seed^0xda3e39cb94b95bdb))
	sample := sampling.Draw(box, sampling.PaperSampleSize, rng)
	var an *cme.Analyzer
	acc.newAnalyzer += d.tr.timed("cme.NewAnalyzer", root, k, func(int) {
		an, err = cme.NewAnalyzer(nest, box, cfg)
	})
	if err != nil {
		return err
	}
	acc.newAnalyzers++
	pool := []*cme.Analyzer{an}
	for len(pool) < core.DefaultWorkers() {
		pool = append(pool, an.Clone())
	}
	var classify, rebind, layerObj time.Duration
	var layerErr error
	layerRun := d.tr.timed("ga.Run.layers", root, k, func(id int) {
		_, gaErr = ga.Run(ctx, spec, func(v []int64) float64 {
			var st cachesim.Stats
			layerObj += d.tr.timed("objective", id, k, func(oid int) {
				space := iterspace.NewTiled(box, clampTile(box, v))
				rebind += d.tr.timed("cme.Rebind", oid, k, func(int) {
					for _, a := range pool {
						if err := a.Rebind(space); err != nil {
							layerErr = err
						}
					}
				})
				classify += d.tr.timed("sampling.EvaluateWith", oid, k, func(int) {
					var err error
					if st, err = sample.EvaluateWith(ctx, pool); err != nil {
						layerErr = err
					}
				})
			})
			if f := float64(st.Replacement); f != values[fmt.Sprint(v)] && layerErr == nil {
				layerErr = fmt.Errorf("layer replay of %v scored %v, core %v", v, f, values[fmt.Sprint(v)])
			}
			return float64(st.Replacement)
		}, gcfg)
	})
	if gaErr != nil {
		return gaErr
	}
	if layerErr != nil {
		return layerErr
	}

	// One analyzer per candidate: the serial classification cost.
	solo := an.Clone()
	for _, v := range cands {
		if err := solo.Rebind(iterspace.NewTiled(box, clampTile(box, v))); err != nil {
			return err
		}
		acc.eval1w += d.tr.timed("sampling.EvaluateWith.1w", root, k, func(int) {
			_, err = sample.EvaluateWith(ctx, []*cme.Analyzer{solo})
		})
		if err != nil {
			return err
		}
		wc := solo.WalkCounts()
		acc.classified += wc.Classified
		acc.steps += wc.Steps
	}
	acc.rebinds += len(cands) * len(pool)
	acc.rebind += rebind
	acc.evalPool += classify
	acc.evals += len(cands)
	acc.setup += setup
	acc.gaSelf += selfTime
	acc.gaRun += runTime
	acc.objective += objTime

	// Evaluation-cache replay: the run's fitness values under the scope
	// core gives the tiling search, put then got back.
	ec := evalcache.New(evalcache.Config{})
	scope := evalcache.Scope("tiling", evalcache.NestKey(nest), evalcache.ConfigKey(cfg), sample.Fingerprint())
	keys := make([]string, len(cands))
	for i, v := range cands {
		keys[i] = scope + string(spec.Encode(v))
	}
	acc.put += d.tr.timed("evalcache.PutFitness", root, k, func(int) {
		for i, key := range keys {
			ec.PutFitness(key, values[fmt.Sprint(cands[i])])
		}
	})
	acc.get += d.tr.timed("evalcache.GetFitness", root, k, func(int) {
		for _, key := range keys {
			if _, ok := ec.GetFitness(key); !ok {
				err = fmt.Errorf("evaluation cache lost a fresh entry")
			}
		}
	})
	acc.cacheOps += len(keys)

	d.share.total += setup + layerRun
	d.share.classify += classify
	d.share.rebind += rebind
	d.share.ga += layerRun - layerObj
	d.share.setup += setup
	d.share.searches++
	return err
}

// replayAcc sums the search replays' layer timings.
type replayAcc struct {
	newAnalyzer, rebind, evalPool, eval1w  time.Duration
	setup, gaSelf, gaRun, objective        time.Duration
	put, get                               time.Duration
	newAnalyzers, rebinds, evals, cacheOps int
	classified, steps                      uint64
}

func clampTile(box *iterspace.Box, v []int64) []int64 {
	t := make([]int64, len(v))
	for d, x := range v {
		t[d] = min(max(x, 1), box.Extent(d))
	}
	return t
}

// serverReplay drives a fresh in-process tilingd with the given searches:
// each once over loopback (overhead = client latency minus the search's
// own SearchStop.Elapsed), then as idempotent retries both through
// Handler().ServeHTTP into a recorder and over loopback.
func (d *layerReplay) serverReplay(ops []searchOp) error {
	c := newCapture()
	b := &serveBase{dir: d.dir, obs: &switchRec{}}
	b.n = 1000
	b.obs.attach(c)
	if err := b.start(1); err != nil {
		return err
	}
	defer b.close()
	var overhead []float64
	var reqs []request
	for k, op := range ops {
		r := request{Key: fmt.Sprintf("layer-%d", k), Body: reqBody{Kernel: op.Kernel, Size: op.Size, Cache: op.Cache, Seed: op.Seed}}
		before := len(c.lifecycle())
		rp, err := b.post(0, r)
		if err != nil {
			return err
		}
		if _, why := parsed(rp); why != "" {
			return fmt.Errorf("layer replay %s: %s", r.Key, why)
		}
		var searched time.Duration
		for _, e := range c.lifecycle()[before:] {
			if s, ok := e.E.(telemetry.SearchStop); ok {
				searched += s.Elapsed
			}
		}
		overhead = append(overhead, ms(rp.Latency-searched))
		reqs = append(reqs, r)
	}
	records, size, err := journalSize(b.stateDir)
	if err != nil {
		return err
	}
	d.m["journal.records_per_op"] = ratio(float64(records), float64(len(reqs)))
	d.m["journal.bytes_per_op"] = ratio(float64(size), float64(len(reqs)))
	d.m["server.overhead_ms"] = median(overhead)

	const retries = 40
	h := b.srv.Handler()
	var handler, loop []float64
	for i := 0; i < retries; i++ {
		for _, r := range reqs {
			payload, _ := json.Marshal(r.Body)
			req := httptest.NewRequest(http.MethodPost, "/v1/tile", bytes.NewReader(payload))
			req.Header.Set("Idempotency-Key", r.Key)
			rr := httptest.NewRecorder()
			handler = append(handler, us(d.tr.timed("server.ServeHTTP", 0, i, func(int) { h.ServeHTTP(rr, req) })))
			if rr.Code != http.StatusOK {
				return fmt.Errorf("handler replay of %s: HTTP %d", r.Key, rr.Code)
			}
			var rp reply
			d.tr.timed("http.RoundTrip", 0, i, func(int) { rp, err = b.post(0, r) })
			if err != nil {
				return err
			}
			loop = append(loop, us(rp.Latency))
		}
	}
	d.m["server.handler_us"] = median(handler)
	d.m["server.transport_us"] = median(loop) - median(handler)
	d.m["journal.append_us"], d.m["journal.replay_ms"], err = d.journalReplay(b.stateDir)
	return err
}

// journalReplay appends a state dir's journal records, in order, into a
// fresh journal with SyncAlways, and times a full journal.Replay of the
// state dir.
func (d *layerReplay) journalReplay(stateDir string) (appendUS, replayMS float64, err error) {
	const maxAppends = 300
	recs, err := lastRecords(filepath.Join(stateDir, "journal"), maxAppends)
	if err != nil {
		return 0, 0, err
	}
	fresh := filepath.Join(d.dir, "journal-append")
	if err := os.RemoveAll(fresh); err != nil {
		return 0, 0, err
	}
	jr, _, err := journal.Open(fresh, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		return 0, 0, err
	}
	var total time.Duration
	for i, rec := range recs {
		total += d.tr.timed("journal.Append", 0, i, func(int) {
			if aerr := jr.Append(rec); aerr != nil {
				err = aerr
			}
		})
		if err != nil {
			jr.Close()
			return 0, 0, err
		}
	}
	if err := jr.Close(); err != nil {
		return 0, 0, err
	}
	var replays []float64
	for i := 0; i < 3; i++ {
		replays = append(replays, ms(d.tr.timed("journal.Replay", 0, i, func(int) {
			_, err = journal.Replay(filepath.Join(stateDir, "journal"), journal.Options{})
		})))
		if err != nil {
			return 0, 0, err
		}
	}
	return ratio(us(total), float64(len(recs))), median(replays), nil
}

// lastRecords decodes the last n journal records under dir, reading only
// the newest segments that hold them.
func lastRecords(dir string, n int) ([]journal.Record, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return nil, err
	}
	var out []journal.Record
	for i := len(segs) - 1; i >= 0 && len(out) < n; i-- {
		recs, err := segmentRecords(segs[i])
		if err != nil {
			return nil, err
		}
		out = append(recs, out...)
	}
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out, nil
}

func segmentRecords(seg string) ([]journal.Record, error) {
	f, err := os.Open(seg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []journal.Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var fr struct {
			Rec journal.Record `json:"rec"`
		}
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			return nil, fmt.Errorf("%s: %w", seg, err)
		}
		out = append(out, fr.Rec)
	}
	return out, sc.Err()
}
