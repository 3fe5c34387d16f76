package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/parser"
	"repro/internal/sampling"
)

// TileRequest is the JSON body of POST /v1/tile: which nest to tile,
// against which cache, and the per-request search bounds. Exactly one of
// Kernel (a Table-1 catalog name) or Source (a textual kernel description
// in the internal/parser format) selects the nest.
type TileRequest struct {
	// Kernel is a catalog kernel name (e.g. "MM"); Size instantiates it
	// (0 = the kernel's default problem size).
	Kernel string `json:"kernel,omitempty"`
	Size   int64  `json:"size,omitempty"`
	// Source is an inline textual kernel description; it overrides Kernel.
	Source string `json:"source,omitempty"`
	// Cache is the target geometry: "8k", "32k", or "size:line:assoc".
	Cache string `json:"cache"`
	// Mode selects the search: "tile" (default) or "order" (tile sizes
	// plus tile-loop interchange).
	Mode string `json:"mode,omitempty"`
	// Seed makes the search deterministic; identical requests with the
	// same seed produce byte-identical responses.
	Seed uint64 `json:"seed,omitempty"`
	// SamplePoints per objective evaluation (0 = the paper's 164).
	SamplePoints int `json:"samplePoints,omitempty"`
	// MaxEvaluations caps distinct objective evaluations (0 = unlimited).
	MaxEvaluations int `json:"maxEvaluations,omitempty"`
	// TimeoutMs bounds the search wall-clock; 0 means the server default,
	// and the server's maximum always caps it. An expired deadline is not
	// an error: the best-so-far tile is returned, tagged stopped=deadline.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// Workers bounds the search's evaluation goroutines (0 = server
	// default): a generation's candidates spread one per analyzer, and a
	// lone evaluation splits its sample points. Never changes the result,
	// so it is excluded from the result-cache key.
	Workers int `json:"workers,omitempty"`
	// Islands splits the GA population into concurrently evolving demes
	// with elite migration (0 = the server default, 1 = single
	// population). The island count changes the search trajectory, so it
	// is part of the result-cache key.
	Islands int `json:"islands,omitempty"`
	// Fidelity is the number of successive-halving rungs for multi-fidelity
	// candidate evaluation (0 or 1 = classic full-fidelity evaluation):
	// candidates are first ranked on a coarse prefix of the sample and only
	// survivors pay the full sample, so the same evaluation budget searches
	// more candidates. Changes the search trajectory, so it is part of the
	// result-cache key.
	Fidelity int `json:"fidelity,omitempty"`
}

// RatioEstimate is the response form of a sampled miss-ratio estimate.
type RatioEstimate struct {
	MissRatio        float64 `json:"missRatio"`
	ReplacementRatio float64 `json:"replacementRatio"`
	Half             float64 `json:"half"`
	Points           int     `json:"points"`
}

// TileResponse is the JSON body answering a tile request. Everything in it
// is a deterministic function of the normalized request, so the result
// cache can serve stored bytes verbatim.
type TileResponse struct {
	Kernel string  `json:"kernel"`
	Mode   string  `json:"mode"`
	Tile   []int64 `json:"tile"`
	// Order, for mode "order", maps tile-loop position to original loop.
	Order []int `json:"order,omitempty"`
	// Stopped is the search's stop reason ("converged", "deadline",
	// "budget", "cancelled"), or "fallback" for a breaker-served heuristic
	// tile that ran no search.
	Stopped string `json:"stopped"`
	// Degraded tags a weakened answer: a fallback tile, or a search that
	// completed only by quarantining broken evaluations.
	Degraded bool `json:"degraded"`
	// Fallback reports the circuit breaker served the capacity heuristic
	// instead of running a search.
	Fallback    bool `json:"fallback,omitempty"`
	Generations int  `json:"generations"`
	Evaluations int  `json:"evaluations"`
	Quarantined int  `json:"quarantined,omitempty"`
	// Before and After are the sampled estimates for the original and
	// tiled nest (omitted on fallback responses — no search ran).
	Before *RatioEstimate `json:"before,omitempty"`
	After  *RatioEstimate `json:"after,omitempty"`
}

// errorResponse is the JSON body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

// normRequest is a TileRequest with every default resolved and the nest
// built — the unit the admission gate, cache and searches operate on.
type normRequest struct {
	kernelName string
	mode       string
	cacheCfg   cache.Config
	seed       uint64
	points     int
	maxEvals   int
	timeout    time.Duration
	workers    int
	islands    int
	fidelity   int
	nest       *ir.Nest
	key        string
	// idemKey is the request's durability identity: the client's
	// Idempotency-Key header, else key. Set by the handlers after
	// normalize; empty when durability is disabled.
	idemKey string
	// resume is the checkpoint a journal recovery restarts the search
	// from (nil for live requests).
	resume *ga.Checkpoint
}

// hashedRequest is the canonical form the cache key is derived from: every
// field that can change the response bytes, nothing that cannot (Workers
// is result-invariant by the evaluator's worker-count invariance).
type hashedRequest struct {
	Kernel    string       `json:"kernel"`
	Size      int64        `json:"size"`
	Source    string       `json:"source"`
	Cache     cache.Config `json:"cache"`
	Mode      string       `json:"mode"`
	Seed      uint64       `json:"seed"`
	Points    int          `json:"points"`
	MaxEvals  int          `json:"maxEvals"`
	TimeoutMs int64        `json:"timeoutMs"`
	Islands   int          `json:"islands"`
	Fidelity  int          `json:"fidelity,omitempty"`
}

// normalize validates a request against the server's limits and resolves
// the nest, the cache geometry, the effective deadline and the cache key.
func (s *Server) normalize(req TileRequest) (*normRequest, error) {
	cfg, err := cliutil.ParseCache(req.Cache)
	if err != nil {
		return nil, err
	}
	mode := req.Mode
	switch mode {
	case "":
		mode = "tile"
	case "tile", "order":
	default:
		return nil, fmt.Errorf("unknown mode %q (want tile or order)", req.Mode)
	}
	if req.SamplePoints < 0 || req.MaxEvaluations < 0 || req.TimeoutMs < 0 || req.Workers < 0 || req.Islands < 0 || req.Fidelity < 0 {
		return nil, fmt.Errorf("negative search bound")
	}
	if req.SamplePoints > maxSamplePoints {
		return nil, fmt.Errorf("samplePoints %d exceeds the server limit %d", req.SamplePoints, maxSamplePoints)
	}
	if req.Islands > maxIslands {
		return nil, fmt.Errorf("islands %d exceeds the server limit %d", req.Islands, maxIslands)
	}
	if req.Fidelity > maxFidelityRungs {
		return nil, fmt.Errorf("fidelity %d exceeds the server limit %d", req.Fidelity, maxFidelityRungs)
	}
	var nest *ir.Nest
	name := req.Kernel
	if req.Source != "" {
		prog, perr := parser.ParseString(req.Source, "request")
		if perr != nil {
			return nil, fmt.Errorf("source: %w", perr)
		}
		nest = prog.Nest
		name = "inline:" + nest.Name
	} else {
		if req.Kernel == "" {
			return nil, fmt.Errorf("request names no kernel and carries no source")
		}
		k, ok := kernels.Get(req.Kernel)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", req.Kernel)
		}
		nest, err = k.Instance(req.Size)
		if err != nil {
			return nil, err
		}
	}
	timeout := time.Duration(req.TimeoutMs) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	islands := req.Islands
	if islands == 0 {
		islands = s.cfg.DefaultIslands
	}
	n := &normRequest{
		kernelName: name,
		mode:       mode,
		cacheCfg:   cfg,
		seed:       req.Seed,
		points:     req.SamplePoints,
		maxEvals:   req.MaxEvaluations,
		timeout:    timeout,
		workers:    req.Workers,
		islands:    islands,
		fidelity:   req.Fidelity,
		nest:       nest,
	}
	// The search would refuse these options only after admission, as a
	// failure counted against the breaker; refuse them here as a bad
	// request instead.
	if err := n.options(s).Validate(); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(mustJSON(hashedRequest{
		Kernel: req.Kernel, Size: req.Size, Source: req.Source,
		Cache: cfg, Mode: mode, Seed: req.Seed, Points: req.SamplePoints,
		MaxEvals: req.MaxEvaluations, TimeoutMs: timeout.Milliseconds(),
		Islands: islands, Fidelity: req.Fidelity,
	}))
	n.key = hex.EncodeToString(sum[:])
	return n, nil
}

// maxSamplePoints bounds the per-evaluation work one request can demand of
// the service; the paper's estimator needs 164.
const maxSamplePoints = 100 * sampling.PaperSampleSize

// maxIslands bounds the island fan-out one request can demand: the
// paper's population of 30 cannot usefully fill more than a handful of
// demes, and each island runs its own evaluation goroutine.
const maxIslands = 8

// maxFidelityRungs bounds the successive-halving ladder depth: with the
// fixed eta of 2 the paper's 164-point sample already collapses to its
// 16-point floor by the sixth rung, so deeper ladders only add bookkeeping.
const maxFidelityRungs = 6

// options maps the normalized request onto the search runtime: the
// per-request deadline rides Options.Deadline, the budget rides
// MaxEvaluations, and the service always quarantines broken evaluations so
// one poisoned candidate degrades a response instead of failing it.
func (n *normRequest) options(s *Server) core.Options {
	opt := core.Options{
		Cache:          n.cacheCfg,
		Seed:           n.seed,
		SamplePoints:   n.points,
		MaxEvaluations: n.maxEvals,
		Workers:        n.workers,
		Islands:        n.islands,
		Fidelity:       ga.Fidelity{Rungs: n.fidelity},
		Deadline:       n.timeout,
		StallTimeout:   s.cfg.StallTimeout,
		FailurePolicy:  core.FailQuarantine,
		Observer:       s.cfg.Observer,
		SharedCache:    s.evalCache,
	}
	// With durability armed, every search journals resumable snapshots at
	// generation boundaries — and a recovered request restarts from the
	// one its crash left behind.
	if s.dur != nil && n.idemKey != "" {
		opt.Checkpoint = s.dur.hook(n.idemKey)
		opt.ResumeFrom = n.resume
	}
	return opt
}

// maxRequestBytes bounds every request body the service decodes.
const maxRequestBytes = 1 << 20

// decodeJSON is the one decode path for every POST body (/v1/tile and
// /v1/tile/batch): bounded read, unknown fields rejected. Validation and
// default-filling then happen in normalize, also shared by both.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// ratio converts a sampling estimate into its response form.
func ratio(e sampling.Estimate) *RatioEstimate {
	return &RatioEstimate{
		MissRatio:        e.MissRatio,
		ReplacementRatio: e.ReplacementRatio,
		Half:             e.Half,
		Points:           e.Points,
	}
}

// mustJSON marshals a value that cannot fail to marshal.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
