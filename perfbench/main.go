// Command perfbench is the repository's benchmark: it drives the CME/GA
// tile search through the library facade (search-cold) and an in-process
// tilingd (serve-search, serve-replay), checks every answer, and prints
// the end-to-end metrics, or with -trace 1 the per-layer metrics, as one
// JSON line. See README.md for the workloads, the metrics and how they
// were made steady.
//
//	perfbench -workload search-cold -seed 1 -seconds 36 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "op-list seed")
	seconds := fs.Int("seconds", 36, "timed window length")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	dir, err := benchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var w workload
	switch *name {
	case wlSearchCold:
		w = newCold(*seed)
	case wlServeSearch:
		w = newServeSearch(*seed, dir)
	case wlServeReplay:
		w = newServeReplay(*seed, dir)
	default:
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloads, ", "))
	}
	ticks0 := readCPUTicks()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	window := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 1 {
		res, err = tracedRun(w, window, dir, *seed)
	} else {
		res, err = plainRun(w, window, median(setups))
	}
	if err != nil {
		return err
	}
	host := fingerprint(dir, ticks0, readCPUTicks())
	hb, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", hb)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// plainRun is an untraced run: the end-to-end metrics.
func plainRun(w workload, length time.Duration, setupS float64) (result, error) {
	cpu0, start := cpuTime(), time.Now()
	win := window(w, make([]int, w.clients()), start.Add(length), nil)
	wall := win.wall(start)
	cpu := cpuTime() - cpu0
	rss := peakRSSMB()
	res, err := checked(w, win.recs, win.ops())
	if err != nil {
		return result{}, err
	}
	q, err := score(w.answers(win.recs))
	if err != nil {
		return result{}, err
	}
	lat := durations(win.lat, ms)
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return result{}, err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return result{}, fmt.Errorf("%w: the window is too short for this host", err)
	}
	ops := float64(win.ops())
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", setupS)
	set("ops_per_s", "1/s", ops/wall.Seconds())
	set("p50_ms", "ms", p50)
	set("p90_ms", "ms", p90)
	set("cpu_ms_per_op", "ms", ms(cpu)/ops)
	set("peak_rss_mb", "MB", rss)
	set("ok_pct", "%", 100*(ops-float64(res.Failed))/ops)
	set("repl_after_pct", "%", q.ReplAfter)
	set("exact_repl_pct", "%", q.ExactRepl)
	set("inside_ci_pct", "%", q.InsideCI)
	fmt.Printf("# %s: %d ops in %.2f s; p50 and p90 over %d samples (%d above p90); oracle simulated %d distinct tiles\n",
		w.name(), win.ops(), wall.Seconds(), len(lat), tailAbove(len(lat), 0.9), q.Tiles)
	for _, n := range endToEnd {
		m := res.Metrics[n]
		fmt.Printf("#   %-16s %14.4f %s\n", n, m.Value, m.Unit)
	}
	return res, nil
}

// checked runs the workload's self-check over a window's records and
// counts the failures.
func checked(w workload, recs []opRecord, ops int) (result, error) {
	runFailed, err := w.verify(recs, ops)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: ops, Failed: runFailed, Metrics: map[string]metric{}}
	if runFailed == 0 {
		for _, r := range recs {
			if r.Fail != "" {
				res.Failed++
				fmt.Printf("# FAILED %s: %s\n", r.Ident, r.Fail)
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// spansPath is where a traced run leaves its spans, inside the checkout.
func spansPath(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
}
