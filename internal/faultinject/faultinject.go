// Package faultinject is a deterministic, seeded fault-injection layer
// for rehearsing failures in the search pipeline. Production code calls
// Fire at named fault points; with no plan installed (the nil default)
// every call is a nil check and the hot paths pay nothing. Tests and the
// CLIs' -fault-spec flag install a Plan that scripts which points fire,
// when (after the Nth hit, at most K times, or with a seeded per-hit
// probability), and how (an injected error, a panic, or a stall).
//
// A Plan is deterministic: trigger decisions depend only on the per-point
// hit counter and the plan's own seeded PCG stream, so a fixed seed and
// spec reproduce the identical fault schedule on every run — the property
// the chaos suite's bit-identical-outcome assertions rely on.
//
// Plans thread through the search pipeline on the context (With/From);
// paths without a context — checkpoint persistence, telemetry sink
// writes — take the plan explicitly or through a Writer wrapper.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The named fault points the search pipeline exposes.
const (
	// EvalPanic panics inside an objective evaluation (recovered by the
	// parallel evaluator into an error, then handled per FailurePolicy).
	EvalPanic = "eval.panic"
	// EvalStall stalls an objective evaluation: for the configured
	// duration, or until the context is cancelled when no duration is
	// given — the scenario the per-generation watchdog guards against.
	EvalStall = "eval.stall"
	// CheckpointWrite fails a checkpoint persistence attempt.
	CheckpointWrite = "checkpoint.write"
	// SinkWrite fails a telemetry sink write (transient I/O error).
	SinkWrite = "sink.write"
	// ServerAccept sheds a tiling-service request at admission as if the
	// queue were full, so chaos tests drive load shedding deterministically
	// without generating real overload.
	ServerAccept = "server.accept"
	// CacheGet fails a result-cache lookup, forcing the request down the
	// full-search miss path (the response must still be byte-identical —
	// the determinism property the chaos suite asserts).
	CacheGet = "cache.get"
	// JournalWrite fails one durable request-journal append, so chaos runs
	// prove the service degrades (sheds the request, or serves it without
	// a durability guarantee) instead of crashing or silently losing the
	// record.
	JournalWrite = "journal.write"
	// JournalReplay corrupts one journal record during startup replay: the
	// record is quarantined and counted (journal_skipped) exactly like a
	// torn or bit-flipped record found on disk, and the boot continues.
	JournalReplay = "journal.replay"
)

// knownPoints guards -fault-spec typos: Parse rejects unknown names.
var knownPoints = map[string]Action{
	EvalPanic:       Panic,
	EvalStall:       Stall,
	CheckpointWrite: Error,
	SinkWrite:       Error,
	ServerAccept:    Error,
	CacheGet:        Error,
	JournalWrite:    Error,
	JournalReplay:   Error,
}

// Action is what a fault point does when it fires.
type Action int

const (
	// Error returns a *Fault error from Fire.
	Error Action = iota
	// Panic panics with a *Fault value.
	Panic
	// Stall blocks — for Rule.Stall, or until ctx is done when zero —
	// then returns the context's error (nil if the sleep completed).
	Stall
)

func (a Action) String() string {
	switch a {
	case Panic:
		return "panic"
	case Stall:
		return "stall"
	default:
		return "error"
	}
}

// Rule scripts one fault point.
type Rule struct {
	// Point names the fault point the rule arms.
	Point string
	// Action is what happens on a fire (Error, Panic, Stall).
	Action Action
	// After is the first hit eligible to fire, 1-based; 0 means the
	// first hit. Hits before it pass through untouched.
	After int
	// Times caps the number of fires (0 = unlimited).
	Times int
	// Prob, when in (0,1], gates each eligible hit on a Bernoulli draw
	// from the plan's seeded stream; 0 fires every eligible hit.
	Prob float64
	// Stall is the stall duration for Action Stall; 0 blocks until the
	// context is cancelled.
	Stall time.Duration
}

// Fault is the error (and panic value) an armed point produces; match it
// with errors.As or Is to distinguish injected faults from real ones.
type Fault struct {
	// Point is the fault point that fired.
	Point string
	// Hit is the 1-based hit count at which it fired.
	Hit int
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: %s fired (hit %d)", f.Point, f.Hit)
}

// Is reports whether err (anywhere in its chain) is an injected fault.
func Is(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// pointState tracks one armed point's rule and counters.
type pointState struct {
	rule  Rule
	hits  int
	fired int
}

// Plan is a scripted set of armed fault points. A nil *Plan is inert:
// every method is a no-op, so production paths carry nil and pay only the
// nil check. Safe for concurrent use.
type Plan struct {
	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*pointState
}

// New builds a plan from rules, with seed driving the probabilistic
// triggers. Later rules for the same point replace earlier ones.
func New(seed uint64, rules ...Rule) *Plan {
	p := &Plan{
		rng:    rand.New(rand.NewPCG(seed, seed^0x6a09e667f3bcc908)),
		points: make(map[string]*pointState, len(rules)),
	}
	for _, r := range rules {
		p.points[r.Point] = &pointState{rule: r}
	}
	return p
}

// Fire records a hit on point and carries out its rule's action when the
// triggers line up: a *Fault error (Error action), a panic with a *Fault
// (Panic action), or a stall honouring ctx (Stall action). Unarmed
// points, ineligible hits, and a nil plan return nil. A nil ctx is
// treated as context.Background(). Fire is Draw followed by Do.
func (p *Plan) Fire(ctx context.Context, point string) error {
	return p.Draw(point).Do(ctx)
}

// Hit is one drawn hit that fires: the fault and the action to carry out.
type Hit struct {
	fault  Fault
	action Action
	stall  time.Duration
}

// Draw records one hit on point and returns it when its rule fires, nil
// when the point is unarmed, the hit is ineligible, or the plan is nil.
// Drawing decides which hit fires; Do carries the action out later,
// possibly on another goroutine, so work drawn in a fixed order keeps its
// fault schedule however it is then scheduled.
func (p *Plan) Draw(point string) *Hit {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.points[point]
	if !ok {
		return nil
	}
	st.hits++
	r := st.rule
	after := r.After
	if after < 1 {
		after = 1
	}
	fire := st.hits >= after && (r.Times == 0 || st.fired < r.Times)
	if fire && r.Prob > 0 {
		fire = p.rng.Float64() < r.Prob
	}
	if !fire {
		return nil
	}
	st.fired++
	return &Hit{fault: Fault{Point: point, Hit: st.hits}, action: r.Action, stall: r.Stall}
}

// Do carries out a drawn hit: it returns the *Fault (Error action),
// panics with it (Panic action), or stalls honouring ctx (Stall action).
// A nil hit does nothing.
func (h *Hit) Do(ctx context.Context) error {
	if h == nil {
		return nil
	}
	f := h.fault
	switch h.action {
	case Panic:
		panic(&f)
	case Stall:
		return stall(ctx, h.stall)
	default:
		return &f
	}
}

// stall blocks for d (or until ctx is done; d <= 0 waits on ctx alone)
// and returns the context's error, nil when the full sleep completed.
func stall(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if d <= 0 {
		<-ctx.Done()
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Counts returns how often point was hit and how often it fired.
func (p *Plan) Counts(point string) (hits, fired int) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.points[point]; ok {
		return st.hits, st.fired
	}
	return 0, 0
}

// String renders the armed points and their rules, sorted by point name.
func (p *Plan) String() string {
	if p == nil {
		return "faultinject: no plan"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.points))
	for n := range p.points {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(';')
		}
		r := p.points[n].rule
		fmt.Fprintf(&b, "%s:mode=%s,after=%d,times=%d", n, r.Action, r.After, r.Times)
		if r.Prob > 0 {
			fmt.Fprintf(&b, ",prob=%g", r.Prob)
		}
		if r.Action == Stall && r.Stall > 0 {
			fmt.Fprintf(&b, ",stall=%s", r.Stall)
		}
	}
	return b.String()
}

// Parse builds a plan from the -fault-spec syntax:
//
//	[seed=N;]point[:k=v[,k=v...]][;point...]
//
// Points are the named constants above; keys are after=N, times=K,
// prob=P, stall=DURATION and mode=error|panic|stall. Each point defaults
// to its natural action (eval.panic panics, eval.stall stalls, the write
// points error). Example:
//
//	seed=7;eval.panic:after=3,times=1;sink.write:prob=0.2
func Parse(spec string) (*Plan, error) {
	seed := uint64(1)
	var rules []Rule
	for _, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if v, ok := strings.CutPrefix(seg, "seed="); ok {
			s, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q", v)
			}
			seed = s
			continue
		}
		point, args, _ := strings.Cut(seg, ":")
		point = strings.TrimSpace(point)
		defAction, ok := knownPoints[point]
		if !ok {
			return nil, fmt.Errorf("faultinject: unknown fault point %q", point)
		}
		r := Rule{Point: point, Action: defAction}
		if strings.TrimSpace(args) != "" {
			for _, kv := range strings.Split(args, ",") {
				k, v, found := strings.Cut(kv, "=")
				k, v = strings.TrimSpace(k), strings.TrimSpace(v)
				if !found {
					return nil, fmt.Errorf("faultinject: %s: bad trigger %q (want key=value)", point, kv)
				}
				var err error
				switch k {
				case "after":
					r.After, err = strconv.Atoi(v)
				case "times":
					r.Times, err = strconv.Atoi(v)
				case "prob":
					r.Prob, err = strconv.ParseFloat(v, 64)
					if err == nil && (r.Prob < 0 || r.Prob > 1) {
						err = fmt.Errorf("out of [0,1]")
					}
				case "stall":
					r.Stall, err = time.ParseDuration(v)
				case "mode":
					switch v {
					case "error":
						r.Action = Error
					case "panic":
						r.Action = Panic
					case "stall":
						r.Action = Stall
					default:
						err = fmt.Errorf("unknown mode")
					}
				default:
					err = fmt.Errorf("unknown key")
				}
				if err != nil {
					return nil, fmt.Errorf("faultinject: %s: bad trigger %q: %v", point, kv, err)
				}
			}
		}
		if r.After < 0 || r.Times < 0 {
			return nil, fmt.Errorf("faultinject: %s: negative trigger", point)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faultinject: spec %q arms no fault points", spec)
	}
	return New(seed, rules...), nil
}

// ctxKey carries a plan on a context.
type ctxKey struct{}

// With returns a context carrying the plan; a nil plan returns ctx
// unchanged, preserving the inert default.
func With(ctx context.Context, p *Plan) context.Context {
	if p == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, ctxKey{}, p)
}

// From extracts the plan a context carries, nil when none is installed.
// The nil result composes with the nil-plan no-op methods, so call sites
// need no guard of their own beyond avoiding work building arguments.
func From(ctx context.Context) *Plan {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(ctxKey{}).(*Plan)
	return p
}

// Writer wraps w so every Write first consults the plan at the given
// point: a fired Error hit fails the write with the *Fault (no bytes
// written), simulating a transient sink I/O error. A nil plan degrades to
// the bare writer.
func Writer(w io.Writer, p *Plan, point string) io.Writer {
	if p == nil {
		return w
	}
	return &faultyWriter{w: w, plan: p, point: point}
}

type faultyWriter struct {
	w     io.Writer
	plan  *Plan
	point string
}

// Write implements io.Writer.
func (fw *faultyWriter) Write(b []byte) (int, error) {
	if err := fw.plan.Fire(context.Background(), fw.point); err != nil {
		return 0, err
	}
	return fw.w.Write(b)
}
