package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
)

// serveBase is an in-process tilingd as the serve workloads drive it:
// server.New with a fresh state dir and SyncAlways journaling, its Handler
// on a loopback httptest server, and one keep-alive HTTP client per
// benchmark client.
type serveBase struct {
	seed     uint64
	dir      string
	n        int
	obs      *switchRec
	srv      *server.Server
	ts       *httptest.Server
	http     []*http.Client
	stateDir string
	// records0 and bytes0 are the journal's size when the window starts.
	records0 int
	bytes0   int64
}

func (b *serveBase) observer() *switchRec { return b.obs }

func (b *serveBase) start(clients int) error {
	b.n++
	b.stateDir = filepath.Join(b.dir, fmt.Sprintf("state-%d", b.n))
	srv, err := server.New(server.Config{
		StateDir: b.stateDir, JournalSync: journal.SyncAlways, Observer: b.obs,
	})
	if err != nil {
		return fmt.Errorf("server.New: %w", err)
	}
	b.srv = srv
	b.ts = httptest.NewServer(srv.Handler())
	b.http = make([]*http.Client, clients)
	for i := range b.http {
		b.http[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	return nil
}

// mark records the journal's size at the end of setup.
func (b *serveBase) mark() (err error) {
	b.records0, b.bytes0, err = journalSize(b.stateDir)
	return err
}

func (b *serveBase) journalDir() string { return b.stateDir }

func (b *serveBase) close() {
	if b.srv == nil {
		return
	}
	for _, c := range b.http {
		c.CloseIdleConnections()
	}
	b.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	b.srv.Drain(ctx)
	cancel()
	b.srv = nil
}

// reply is one answered POST /v1/tile.
type reply struct {
	Status  int
	Source  string // X-Tilingd-Cache: miss, hit, coalesced, journal
	Body    []byte
	Latency time.Duration
	Start   time.Time
}

func (r reply) hash() string {
	sum := sha256.Sum256(r.Body)
	return hex.EncodeToString(sum[:])
}

// post sends one request and times it from send to the last body byte.
func (b *serveBase) post(c int, r request) (reply, error) {
	payload, _ := json.Marshal(r.Body) // plain data: cannot fail
	req, err := http.NewRequest(http.MethodPost, b.ts.URL+"/v1/tile", bytes.NewReader(payload))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", r.Key)
	out := reply{Start: time.Now()}
	resp, err := b.http[c].Do(req)
	if err != nil {
		return out, err
	}
	out.Body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	out.Latency = time.Since(out.Start)
	out.Status, out.Source = resp.StatusCode, resp.Header.Get("X-Tilingd-Cache")
	return out, err
}

// parsed decodes a 200 body and lists why a caller could not use it.
func parsed(rp reply) (server.TileResponse, string) {
	var tr server.TileResponse
	if rp.Status != http.StatusOK {
		return tr, fmt.Sprintf("HTTP %d: %s", rp.Status, bytes.TrimSpace(rp.Body))
	}
	if err := json.Unmarshal(rp.Body, &tr); err != nil {
		return tr, "undecodable body: " + err.Error()
	}
	switch {
	case tr.Fallback:
		return tr, "fallback"
	case tr.Degraded:
		return tr, "degraded"
	case tr.Stopped == "deadline" || tr.Stopped == "cancelled":
		return tr, "stopped: " + tr.Stopped
	}
	return tr, ""
}

func answerOf(body reqBody, tr server.TileResponse) *answer {
	a := &answer{Kernel: body.Kernel, Size: body.Size, Cache: body.Cache, Seed: body.Seed, Tile: tr.Tile, Order: tr.Order}
	if tr.After != nil {
		a.Miss, a.Repl, a.Half = tr.After.MissRatio, tr.After.ReplacementRatio, tr.After.Half
	}
	return a
}

// searchWorkload is serve-search: two closed-loop clients with disjoint
// kernels, each running capped-then-uncapped sessions of real searches.
type searchWorkload struct {
	serveBase
	parts [][]string
}

func newServeSearch(seed uint64, dir string) *searchWorkload {
	return &searchWorkload{
		serveBase: serveBase{seed: seed, dir: dir, obs: &switchRec{}},
		parts:     partition(2),
	}
}

func (w *searchWorkload) name() string { return wlServeSearch }
func (w *searchWorkload) clients() int { return 2 }

// serveWarmup is the untimed capped request each client sends in set-up:
// the same for every seed, so set-up time does not depend on the seed.
var serveWarmup = reqBody{Kernel: "T2D", Size: 160, Cache: "8k", Seed: 1, MaxEvaluations: sessionCap}

func (w *searchWorkload) setup() error {
	w.close()
	if err := w.start(w.clients()); err != nil {
		return err
	}
	err := forClients(w.clients(), func(c int) error {
		r := request{Key: fmt.Sprintf("warm-c%d", c), Body: serveWarmup}
		r.Body.Seed += uint64(c)
		rp, err := w.post(c, r)
		if err != nil {
			return err
		}
		if _, why := parsed(rp); why != "" {
			return fmt.Errorf("warm-up %s: %s", r.Key, why)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return w.mark()
}

func (w *searchWorkload) session(c, n int) (request, bool) {
	return serveSession(w.seed, c, w.parts[c], n/2)[n%2], n%2 == 0
}

func (w *searchWorkload) do(c, n int) opRecord {
	r, capped := w.session(c, n)
	rec := opRecord{N: n, Ident: r.Key}
	rp, err := w.post(c, r)
	rec.Start, rec.Latency = rp.Start, rp.Latency
	if err != nil {
		rec.Fail = err.Error()
		return rec
	}
	tr, why := parsed(rp)
	rec.Fail = why
	if why == "" && rp.Source != "miss" {
		// Every request of this workload must run its own search.
		rec.Fail = "served from " + rp.Source
	}
	// With the fidelity ladder on, the cap is charged in sample points, so
	// only classic requests bound their evaluation count by it.
	if why == "" && capped && r.Body.Fidelity == 0 && tr.Evaluations > sessionCap {
		rec.Fail = fmt.Sprintf("capped request spent %d evaluations", tr.Evaluations)
	}
	rec.Work = work{Hash: rp.hash(), Evals: tr.Evaluations, Gens: tr.Generations}
	if !capped && why == "" {
		rec.Answer = answerOf(r.Body, tr)
	}
	return rec
}

// refSessions is how many leading sessions per client the post-window
// reference pass re-runs.
const refSessions = 3

// verify re-runs each client's first sessions, serially, on a fresh
// in-process server without a state dir, through Handler().ServeHTTP, and
// requires the timed requests to match them byte for byte.
func (w *searchWorkload) verify(recs []opRecord, _ int) (int, error) {
	ref, err := server.New(server.Config{})
	if err != nil {
		return 0, err
	}
	defer ref.Drain(context.Background())
	h := ref.Handler()
	want := map[string]work{}
	for c := 0; c < w.clients(); c++ {
		for n := 0; n < 2*refSessions; n++ {
			r, _ := w.session(c, n)
			payload, _ := json.Marshal(r.Body)
			req := httptest.NewRequest(http.MethodPost, "/v1/tile", bytes.NewReader(payload))
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			rp := reply{Status: rr.Code, Body: rr.Body.Bytes()}
			tr, why := parsed(rp)
			if why != "" {
				return 0, fmt.Errorf("reference %s: %s", r.Key, why)
			}
			want[r.Key] = work{Hash: rp.hash(), Evals: tr.Evaluations, Gens: tr.Generations}
		}
	}
	checked := 0
	for k := range recs {
		if ref, ok := want[recs[k].Ident]; ok && recs[k].Fail == "" {
			recs[k].Fail = recs[k].Work.diff(ref)
			checked++
		}
	}
	fmt.Printf("# work self-check: %d of %d requests compared with a reference run\n", checked, len(recs))
	return 0, nil
}

func (w *searchWorkload) replayOps() []searchOp {
	var ops []searchOp
	for n := 0; len(ops) < 8; n++ {
		for c := 0; c < w.clients(); c++ {
			r, _ := w.session(c, 2*n+1)
			ops = append(ops, r.Body.op())
		}
	}
	return ops
}

// replayWorkload is serve-replay: tilingd warmed with answered searches,
// then two clients sending only already-answered requests. Two thirds are
// idempotent retries (served from the idempotency index, no journal
// write); one third are fresh keys for a cached request (a result-cache
// hit that still appends three fsynced journal records).
type replayWorkload struct {
	serveBase
	warm      [][]request
	warmHash  [][]string
	warmResp  []*answer
	mu        sync.Mutex
	writesRun int
}

func newServeReplay(seed uint64, dir string) *replayWorkload {
	return &replayWorkload{
		serveBase: serveBase{seed: seed, dir: dir, obs: &switchRec{}},
		warm:      replayWarm(2),
	}
}

func (w *replayWorkload) name() string { return wlServeReplay }
func (w *replayWorkload) clients() int { return 2 }

func (w *replayWorkload) setup() error {
	w.close()
	if err := w.start(w.clients()); err != nil {
		return err
	}
	w.warmHash = make([][]string, w.clients())
	answers := make([][]*answer, w.clients())
	err := forClients(w.clients(), func(c int) error {
		for _, r := range w.warm[c] {
			rp, err := w.post(c, r)
			if err != nil {
				return err
			}
			tr, why := parsed(rp)
			if why != "" {
				return fmt.Errorf("warm %s: %s", r.Key, why)
			}
			w.warmHash[c] = append(w.warmHash[c], rp.hash())
			answers[c] = append(answers[c], answerOf(r.Body, tr))
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.warmResp = append(answers[0], answers[1]...)
	w.writesRun = 0
	return w.mark()
}

func (w *replayWorkload) do(c, n int) opRecord {
	op := replayOpAt(w.seed, c, n)
	r := w.warm[c][op.Warm]
	want := "journal"
	if op.Write {
		r.Key, want = op.Key, "hit"
		w.mu.Lock()
		w.writesRun++
		w.mu.Unlock()
	}
	rec := opRecord{N: n, Ident: r.Key}
	rp, err := w.post(c, r)
	rec.Start, rec.Latency = rp.Start, rp.Latency
	switch {
	case err != nil:
		rec.Fail = err.Error()
	case rp.Status != http.StatusOK:
		rec.Fail = fmt.Sprintf("HTTP %d", rp.Status)
	case rp.Source != want:
		rec.Fail = fmt.Sprintf("served from %s, want %s", rp.Source, want)
	case rp.hash() != w.warmHash[c][op.Warm]:
		rec.Fail = "replayed bytes differ from the first answer"
	}
	return rec
}

// verify checks the journal work: every write appended exactly three
// records (accepted, started, done) and no read appended any.
func (w *replayWorkload) verify(_ []opRecord, ops int) (int, error) {
	records, _, err := journalSize(w.stateDir)
	if err != nil {
		return 0, err
	}
	got, want := records-w.records0, 3*w.writesRun
	fmt.Printf("# work self-check: journal grew by %d records for %d writes among %d ops\n", got, w.writesRun, ops)
	if got != want {
		fmt.Printf("# FAILED journal: %d records appended, want %d\n", got, want)
		return ops, nil
	}
	return 0, nil
}

func (w *replayWorkload) replayOps() []searchOp {
	var ops []searchOp
	for _, rs := range w.warm {
		for _, r := range rs {
			ops = append(ops, r.Body.op())
		}
	}
	return ops
}

// journalSize counts the records and bytes in a state dir's journal
// segments.
func journalSize(stateDir string) (records int, size int64, err error) {
	segs, err := filepath.Glob(filepath.Join(stateDir, "journal", "seg-*.wal"))
	if err != nil {
		return 0, 0, err
	}
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			return 0, 0, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			records++
			size += int64(len(sc.Bytes())) + 1
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return 0, 0, err
		}
	}
	return records, size, nil
}

// forClients runs fn once per client concurrently and returns the first
// error.
func forClients(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
