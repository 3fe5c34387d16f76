// Package server implements tilingd: a long-running HTTP/JSON service
// that answers tiling requests (kernel + cache geometry + search bounds)
// with near-optimal tile sizes from the CME+GA search. Robustness is the
// design centre:
//
//   - a bounded admission gate sheds load explicitly (429 + Retry-After)
//     instead of queueing without bound;
//   - every request carries a deadline mapped onto the search runtime's
//     budget machinery, so an expensive search returns its best-so-far
//     tile instead of timing out empty-handed;
//   - a singleflight-deduplicated LRU cache serves repeated requests the
//     exact bytes of the first answer (fixed-seed searches are
//     deterministic, so cache hits are byte-identical to misses);
//   - a circuit breaker takes the GA out of rotation when searches fail
//     repeatedly and serves the capacity-heuristic fallback tile, tagged
//     degraded, until a half-open probe proves the search healthy again;
//   - a process-wide shared evaluation cache memoizes the sampled
//     statistics of evaluated candidates across requests with the same
//     seed and sample size (a capped request and its uncapped retry, or
//     tile and order requests on identity-order tiles) — without
//     changing any result;
//   - POST /v1/tile/batch answers up to 16 kernels in one call, streaming
//     per-item NDJSON results as they finish, with per-item admission
//     against the same bounded gate and the same singleflight coalescing;
//   - a graceful drain answers every accepted in-flight request before
//     the process exits, cancelling stragglers down to their best-so-far
//     results when the grace period runs out.
//
// The package depends only on the telemetry Recorder interface; the
// tilingd command wires concrete sinks (JSONL, expvar) on the outside.
package server

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/lru"
	"repro/internal/telemetry"
)

// Config sizes the server's robustness machinery. The zero value is
// usable: every field has a production-shaped default.
type Config struct {
	// MaxConcurrent bounds the searches running at once
	// (0 = min(4, NumCPU)); each search fans out its own evaluation
	// workers, so this is intentionally small.
	MaxConcurrent int
	// QueueDepth bounds the requests waiting for a run slot (0 = 64).
	// A request arriving past the queue is shed with 429.
	QueueDepth int
	// DefaultTimeout is the per-request search deadline when the request
	// names none (0 = 30s); MaxTimeout caps what a request may ask for
	// (0 = 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// StallTimeout arms the per-evaluation watchdog on every search
	// (0 = 10s); a stuck evaluation is quarantined, not waited on.
	StallTimeout time.Duration
	// CacheEntries bounds the LRU result cache (0 = 512).
	CacheEntries int
	// EvalCacheEntries bounds the process-wide shared evaluation cache
	// that search pipelines consult across requests (0 = the evalcache
	// default, negative = disabled). Unlike the result cache — which
	// serves whole response bodies for byte-identical requests — the
	// evaluation cache memoizes the sampled statistics of evaluated
	// candidates. Its keys include the seed-drawn sample, so
	// requests with the same seed and sample size share them: a capped
	// request and its uncapped retry, or tile and order requests on
	// identity-order tiles.
	EvalCacheEntries int
	// BreakerThreshold is the consecutive-failure count that trips the
	// circuit breaker (0 = 5); BreakerCooldown is how long it stays open
	// before a half-open probe (0 = 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RetryAfter is the hint returned with shed responses (0 = 1s).
	RetryAfter time.Duration
	// DefaultIslands is the GA island count applied to requests that name
	// none (0 = single population). Requests may still override it.
	DefaultIslands int
	// StateDir arms the durability layer: a crash-safe request journal
	// plus per-search checkpoints live under it, every accepted request is
	// journaled before its search runs, duplicate idempotent retries are
	// served the recorded response bytes, and Recover replays whatever a
	// crash interrupted. Empty disables durability (the default).
	StateDir string
	// JournalSync selects the journal's append durability
	// (journal.SyncAlways by default; journal.SyncNone trades the last few
	// appends on crash for throughput).
	JournalSync journal.SyncMode
	// CheckpointInterval throttles in-flight search snapshots to one per
	// interval (0 = every generation boundary).
	CheckpointInterval time.Duration
	// Observer receives the server's request lifecycle events and every
	// search's telemetry. It must be safe for concurrent use: parallel
	// requests share it. Nil disables telemetry.
	Observer telemetry.Recorder
	// Faults arms deterministic fault injection (server.accept, cache.get,
	// plus the search-pipeline points via the request context). Nil in
	// production.
	Faults *faultinject.Plan
	// Now is the clock (nil = time.Now); tests inject a fake to step the
	// breaker cooldown.
	Now func() time.Time
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = min(4, runtime.NumCPU())
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 10 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is the tiling service. Create with New, expose Handler on an
// http.Server, and call Drain before exiting.
type Server struct {
	cfg  Config
	gate *gate
	// cache maps the canonical request hash to the exact response bytes
	// sent on the miss, so a hit is byte-identical to the miss by
	// construction. Callers never mutate a stored body.
	cache   *lru.Cache[string, []byte]
	flight  *flightGroup
	breaker *breaker
	reqID   atomic.Uint64

	// evalCache is the process-wide shared evaluation cache (nil when
	// disabled); every search this server runs shares it.
	evalCache *evalcache.Cache

	// dur is the crash-safety layer (nil without Config.StateDir).
	dur *durability

	// mu serializes admission against Drain: a request is either counted
	// in wg before the drain flips draining, or rejected after.
	mu       sync.Mutex
	draining bool
	wg       sync.WaitGroup

	// searchCtx governs every search's lifetime: it carries the fault
	// plan and is cancelled only by a forced drain, so searches survive
	// individual client disconnects (their results are cached for the
	// next caller) but stop — at their best-so-far — when the process
	// must exit.
	searchCtx    context.Context
	cancelSearch context.CancelFunc
}

// New builds a Server from cfg. With Config.StateDir set it also opens
// (replaying and compacting) the request journal; a journal that cannot
// be opened at all — as opposed to one with corrupt records, which are
// quarantined — fails construction rather than running without the
// durability the configuration asked for.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(faultinject.With(context.Background(), cfg.Faults))
	var ec *evalcache.Cache
	if cfg.EvalCacheEntries >= 0 {
		ec = evalcache.New(evalcache.Config{
			MaxEntries: cfg.EvalCacheEntries,
			Observer:   cfg.Observer,
		})
	}
	s := &Server{
		cfg:          cfg,
		gate:         newGate(cfg.MaxConcurrent, cfg.QueueDepth),
		cache:        lru.New[string, []byte](cfg.CacheEntries),
		flight:       newFlightGroup(),
		breaker:      newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now, cfg.Observer),
		evalCache:    ec,
		searchCtx:    ctx,
		cancelSearch: cancel,
	}
	if cfg.StateDir != "" {
		dur, err := openDurability(cfg)
		if err != nil {
			cancel()
			return nil, err
		}
		s.dur = dur
	}
	return s, nil
}

// Handler returns the service's HTTP surface, mounted on an explicit
// versioned router: POST /v1/tile, POST /v1/tile/batch, GET /v1/kernels
// and GET /healthz. Method mismatches are answered by the mux with 405.
// The command additionally mounts /debug/vars.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tile", s.handleTile)
	mux.HandleFunc("POST /v1/tile/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// emit forwards one event to the observer, if any.
func (s *Server) emit(e telemetry.Event) {
	if s.cfg.Observer != nil {
		s.cfg.Observer.Event(e)
	}
}

// shed rejects a request at admission with the shedding status and a
// Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, status int, reason string) {
	s.emit(telemetry.RequestShed{Reason: reason})
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeJSON(w, status, errorResponse{Error: "overloaded: " + reason})
}

// admitCtx runs the admission decision for one unit of search work: the
// injectable accept fault, then the bounded gate, then the drain check.
// It never writes a response — the single-request handler and the batch
// streamer render a rejection their own way. On success the work is
// registered in the drain WaitGroup and holds a run slot; finish must be
// called exactly once. On rejection it returns the HTTP status and shed
// reason to report.
func (s *Server) admitCtx(ctx context.Context) (finish func(), status int, reason string) {
	if err := s.cfg.Faults.Fire(ctx, faultinject.ServerAccept); err != nil {
		return nil, http.StatusTooManyRequests, "injected"
	}
	release, err := s.gate.acquire(ctx)
	switch {
	case errors.Is(err, errQueueFull):
		return nil, http.StatusTooManyRequests, "queue_full"
	case err != nil:
		// The wait for a run slot ended without one (the request context
		// expired while queued). Shed like any other overload so the
		// response carries the Retry-After hint.
		return nil, http.StatusServiceUnavailable, "slot_timeout"
	}
	// The slot is held. Register against drain — or, if a drain began
	// while this request was queued, give the slot back and reject: the
	// drain contract covers requests accepted before it started.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		release()
		return nil, http.StatusServiceUnavailable, "draining"
	}
	s.wg.Add(1)
	s.mu.Unlock()
	return func() {
		release()
		s.wg.Done()
	}, 0, ""
}

// admit is admitCtx for a plain HTTP request: a rejection is written
// directly as a shed response.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (finish func(), ok bool) {
	finish, status, reason := s.admitCtx(r.Context())
	if finish == nil {
		s.shed(w, status, reason)
		return nil, false
	}
	return finish, true
}

// handleTile answers POST /v1/tile.
func (s *Server) handleTile(w http.ResponseWriter, r *http.Request) {
	started := s.cfg.Now()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.shed(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req TileRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	norm, err := s.normalize(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	idem := r.Header.Get("Idempotency-Key")
	if len(idem) > maxIdemKeyBytes {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "Idempotency-Key exceeds 256 bytes"})
		return
	}
	norm.idemKey = idemKeyFor(idem, norm)
	// A duplicate idempotent retry is answered the exact recorded bytes
	// before it costs an admission slot.
	if s.dur != nil {
		if body, outcome, ok := s.dur.lookup(norm.idemKey); ok {
			id := s.reqID.Add(1)
			s.emit(telemetry.RequestAccepted{ID: id, Kernel: norm.kernelName, Mode: norm.mode})
			s.respond(w, id, started, body, outcome, "journal")
			return
		}
	}

	finish, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer finish()
	id := s.reqID.Add(1)
	s.emit(telemetry.RequestAccepted{ID: id, Kernel: norm.kernelName, Mode: norm.mode})

	body, outcome, source, err := s.durableServe(r.Context(), norm, &req)
	if err != nil {
		s.emit(telemetry.RequestDone{ID: id, Outcome: "error", Elapsed: s.cfg.Now().Sub(started)})
		if errors.Is(err, errJournalUnavailable) {
			w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.respond(w, id, started, body, outcome, source)
}

// serve resolves one admitted, normalized request to response bytes.
// Result cache first: a hit answers without touching the breaker or the
// search pipeline (the cache.get fault point forces the miss path so
// chaos runs can prove hit/miss byte-identity); misses go through the
// singleflight group so concurrent identical requests — from /v1/tile or
// items of a batch — run one search. source labels where the bytes came
// from: "hit", "miss", "coalesced" or "bypass".
func (s *Server) serve(ctx context.Context, norm *normRequest) (body []byte, outcome, source string, err error) {
	source = "miss"
	if err := s.cfg.Faults.Fire(ctx, faultinject.CacheGet); err != nil {
		source = "bypass"
	} else if body, hit := s.cache.Get(norm.key); hit {
		return body, "ok", "hit", nil
	}
	res, shared, err := s.flight.do(norm.key, func() (computed, error) {
		return s.compute(norm)
	})
	if err != nil {
		return nil, "", "", err
	}
	if res.cacheable && source != "bypass" {
		s.cache.Put(norm.key, res.body)
	}
	if shared {
		source = "coalesced"
	}
	return res.body, res.outcome, source, nil
}

// respond writes one 200 answer and closes the request's telemetry.
func (s *Server) respond(w http.ResponseWriter, id uint64, started time.Time, body []byte, outcome, source string) {
	s.emit(telemetry.RequestDone{
		ID: id, Outcome: outcome, CacheHit: source == "hit",
		Elapsed: s.cfg.Now().Sub(started),
	})
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Tilingd-Cache", source)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// compute produces the response for one cache miss: a real search when the
// breaker allows it, the heuristic fallback when it does not.
func (s *Server) compute(norm *normRequest) (computed, error) {
	allowed, probe := s.breaker.allow()
	if !allowed {
		return s.fallback(norm)
	}
	resp, failure, err := s.search(norm)
	s.breaker.record(err == nil && !failure, probe)
	if err != nil {
		return computed{}, err
	}
	body := mustJSON(resp)
	if failure {
		return computed{body: body, outcome: "degraded", failure: true}, nil
	}
	return computed{body: body, outcome: "ok", cacheable: true}, nil
}

// search runs the GA search for the request, retrying once from scratch
// when a recovered checkpoint turns out to be unusable (wrong options, a
// stale snapshot): a bad checkpoint must cost the resume, never the
// request.
func (s *Server) search(norm *normRequest) (*TileResponse, bool, error) {
	resp, failure, err := s.searchOnce(norm)
	if err != nil && norm.resume != nil {
		norm.resume = nil
		resp, failure, err = s.searchOnce(norm)
	}
	return resp, failure, err
}

// searchOnce runs the GA search for the request. failure reports a
// completed but degraded run (quarantined evaluations) — it counts
// against the breaker like an error, but still yields a usable
// best-so-far response.
func (s *Server) searchOnce(norm *normRequest) (*TileResponse, bool, error) {
	opt := norm.options(s)
	resp := &TileResponse{Kernel: norm.kernelName, Mode: norm.mode}
	var quarantined int
	switch norm.mode {
	case "order":
		res, err := core.OptimizeTilingOrder(s.searchCtx, norm.nest, opt)
		if err != nil {
			return nil, true, err
		}
		resp.Tile, resp.Order, resp.Stopped = res.Tile, res.Order, res.Stopped.String()
		resp.Generations, resp.Evaluations = res.GA.Generations, res.GA.Evaluations
		resp.Before, resp.After = ratio(res.Before), ratio(res.After)
		quarantined = len(res.Quarantined)
	default:
		res, err := core.OptimizeTiling(s.searchCtx, norm.nest, opt)
		if err != nil {
			return nil, true, err
		}
		resp.Tile, resp.Stopped = res.Tile, res.Stopped.String()
		resp.Generations, resp.Evaluations = res.GA.Generations, res.GA.Evaluations
		resp.Before, resp.After = ratio(res.Before), ratio(res.After)
		quarantined = len(res.Quarantined)
	}
	resp.Quarantined = quarantined
	resp.Degraded = quarantined > 0
	return resp, resp.Degraded, nil
}

// fallback answers with the search-free capacity-heuristic tile, tagged
// degraded — the service stays available while the breaker is open.
func (s *Server) fallback(norm *normRequest) (computed, error) {
	tile, err := core.HeuristicTile(norm.nest, norm.cacheCfg)
	if err != nil {
		return computed{}, err
	}
	resp := &TileResponse{
		Kernel: norm.kernelName, Mode: norm.mode, Tile: tile,
		Stopped: "fallback", Degraded: true, Fallback: true,
	}
	return computed{body: mustJSON(resp), outcome: "fallback"}, nil
}

// health is the /healthz body.
type health struct {
	Status   string `json:"status"`
	Breaker  string `json:"breaker"`
	InFlight int    `json:"inFlight"`
	Queued   int    `json:"queued"`
	// JournalSkipped is the quarantined-record count from startup journal
	// replay (only present when durability is armed and non-zero), so a
	// corrupting disk is visible on the health surface.
	JournalSkipped int `json:"journalSkipped,omitempty"`
}

// handleHealth answers GET /healthz: 200 while serving, 503 while
// draining (so load balancers stop routing here), with the breaker state
// and load visible either way.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := health{
		Status:   "ok",
		Breaker:  s.breaker.current().String(),
		InFlight: s.gate.running(),
		Queued:   s.gate.queued(),
	}
	if s.dur != nil {
		h.JournalSkipped = s.dur.skipped
	}
	status := http.StatusOK
	if draining {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// InFlight reports the requests currently holding run slots.
func (s *Server) InFlight() int { return s.gate.running() }

// Drain gracefully stops the server: new requests are rejected with 503,
// and every already-accepted request is answered. When ctx expires before
// the in-flight searches finish naturally, they are cancelled — the
// bounded-search runtime turns that into best-so-far responses, so even a
// forced drain loses no accepted request. Drain is idempotent; it returns
// once every accepted request has been answered.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	inFlight := s.gate.running() + s.gate.queued()
	s.mu.Unlock()

	// Persist the throttled-back search snapshots now: if the process is
	// killed during the grace period, restart recovery resumes from here
	// instead of the last interval boundary.
	if first && s.dur != nil {
		s.dur.flush()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	forced := false
	select {
	case <-done:
	case <-ctx.Done():
		// Grace expired: cancel the searches; they stop at the next
		// candidate boundary and still answer with their best-so-far.
		forced = true
		s.cancelSearch()
		<-done
	}
	if first {
		if s.dur != nil {
			// Every accepted request is answered (and journaled done) by
			// now; the journal can close cleanly.
			s.dur.close()
		}
		s.emit(telemetry.ServerDrained{InFlight: inFlight, Forced: forced})
	}
}

// writeJSON writes one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(mustJSON(v))
}
