package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// opRecord is one completed op of a timed window.
type opRecord struct {
	N int // the op's index in its client's stream
	// Ident names the op's deterministic identity: ops with equal Ident
	// must do identical work.
	Ident   string
	Start   time.Time
	Latency time.Duration
	// Fail is empty when the op succeeded and passed its checks.
	Fail string
	Work work
	// Answer is the returned tile the oracle scores (nil for ops whose
	// answer a caller would not use, such as budget-capped requests).
	Answer *answer
}

// work is an op's deterministic work, as the self-check compares it.
type work struct {
	Hash        string // response body or result hash
	Evals, Gens int
	// Points and Walks are the sampled points and CME walk steps, compared
	// only when both runs Counted them: ops whose search reports to an
	// observer of its own. tilingd's searches share the server's one.
	Points, Walks uint64
	Counted       bool
}

func (w work) diff(ref work) string {
	switch {
	case w.Hash != ref.Hash:
		return "result hash differs"
	case w.Evals != ref.Evals || w.Gens != ref.Gens:
		return fmt.Sprintf("GA work %d evals/%d gens, expected %d/%d", w.Evals, w.Gens, ref.Evals, ref.Gens)
	case w.Counted && ref.Counted && (w.Points != ref.Points || w.Walks != ref.Walks):
		return fmt.Sprintf("CME work %d points/%d walk steps, expected %d/%d", w.Points, w.Walks, ref.Points, ref.Walks)
	}
	return ""
}

// workload is one traffic mix. setup is timed (setup_s) and may run
// several times; each call replaces the previous state after close.
type workload interface {
	name() string
	clients() int
	setup() error
	close()
	// do runs op n of client c and returns its record.
	do(c, n int) opRecord
	// verify runs the post-window work self-check: it marks failed
	// records and returns how many ops failed a run-level check.
	verify(recs []opRecord, ops int) (failed int, err error)
	// answers are the returned tiles the oracle scores.
	answers(recs []opRecord) []*answer
	// replayOps are the searches the traced run's layer replays re-run.
	replayOps() []searchOp
	// observer is the recorder the program reports to; the traced run
	// swaps a capture in for its traced half.
	observer() *switchRec
}

// switchRec is the Observer the program is handed: a counter always, a
// capture while the traced half of a traced run is on.
type switchRec struct {
	counter
	mu  sync.Mutex
	cap *capture
}

func (r *switchRec) Event(e telemetry.Event) {
	r.mu.Lock()
	c := r.cap
	r.mu.Unlock()
	if c != nil {
		c.Event(e)
	}
}

func (r *switchRec) Add(d telemetry.Counters) {
	r.counter.Add(d)
	r.mu.Lock()
	c := r.cap
	r.mu.Unlock()
	if c != nil {
		c.Add(d)
	}
}

func (r *switchRec) attach(c *capture) {
	r.mu.Lock()
	r.cap = c
	r.mu.Unlock()
}

// windowResult is what a timed window leaves behind: every op's latency
// and end, and the full record only of ops the post-window checks need
// (so a window of 10^5 cheap ops does not grow the process it measures).
type windowResult struct {
	recs []opRecord
	lat  []time.Duration
	end  time.Time
	next []int // each client's next op index
}

func (r windowResult) ops() int { return len(r.lat) }

// wall is the time from start to the last op's end.
func (r windowResult) wall(start time.Time) time.Duration { return r.end.Sub(start) }

func (r opRecord) keep() bool { return r.Fail != "" || r.Work.Hash != "" || r.Answer != nil }

// maxOpSpans bounds the op spans one client records in a traced window;
// serve-replay completes some 10^5 ops in one.
const maxOpSpans = 5000

// window runs every client in a closed loop until the deadline: a client
// sends its next op only after the previous one completed. Ops in flight
// at the deadline finish and count.
func window(w workload, start []int, deadline time.Time, tr *tracer) windowResult {
	var mu sync.Mutex
	var wg sync.WaitGroup
	res := windowResult{next: append([]int(nil), start...)}
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var recs []opRecord
			var lat []time.Duration
			var end time.Time
			n := start[c]
			for ; time.Now().Before(deadline); n++ {
				var rec opRecord
				if tr != nil && len(lat) < maxOpSpans {
					tr.timed("op", 0, n, func(int) { rec = w.do(c, n) })
				} else {
					rec = w.do(c, n)
				}
				lat = append(lat, rec.Latency)
				end = rec.Start.Add(rec.Latency)
				if rec.keep() {
					recs = append(recs, rec)
				}
			}
			mu.Lock()
			res.recs = append(res.recs, recs...)
			res.lat = append(res.lat, lat...)
			if end.After(res.end) {
				res.end = end
			}
			res.next[c] = n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return res
}

// benchDir is the scratch directory inside the checkout that state dirs
// and span dumps live under.
func benchDir() (string, error) {
	dir := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
