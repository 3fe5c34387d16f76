package sinks

import (
	"expvar"
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// Expvar aggregates counters and event tallies into an expvar.Map, so a
// long-running process (or a CLI with -metrics) exposes search telemetry
// through the standard /debug/vars surface. Published variables:
//
//	<name>.evaluations          distinct objective evaluations
//	<name>.memo_hits            GA memo-table recalls
//	<name>.sampled_points       iteration points classified
//	<name>.walk_steps           CME backward-walk steps (positions passed, solved ones included)
//	<name>.classified_accesses  accesses classified by the point solver
//	<name>.walk_cap_hits        walk-cap trips (0 in normal operation)
//	<name>.pool_hits            analyzer-pool rebinds (reuse)
//	<name>.pool_misses          analyzer-pool rebuilds
//	<name>.evalcache_hits       shared evaluation-cache recalls
//	<name>.evalcache_misses     shared evaluation-cache misses
//	<name>.evalcache_evictions  shared evaluation-cache size-bound drops
//	<name>.events               total events observed
//	<name>.events.<kind>        per-kind event tallies
//	<name>.searches             completed searches (search_stop events)
//	<name>.generations          completed GA generations
//
// A server feeding the sink additionally populates the service counters:
//
//	<name>.requests_accepted    requests admitted past the admission gate
//	<name>.requests_shed        requests rejected at admission (429/503)
//	<name>.requests_done        accepted requests answered
//	<name>.cache_hits           responses served from the result cache
//	<name>.degraded_responses   degraded or fallback responses served
//	<name>.breaker_trips        circuit-breaker closed/half-open -> open
//	<name>.drains               completed graceful drains
//	<name>.journal_recovered    journaled requests replayed after a restart
//	<name>.journal_skipped      torn/corrupt journal records quarantined
//
// where <name>.x is a key of the expvar map registered under <name>.
// Safe for concurrent use (expvar.Map is atomic).
type Expvar struct {
	m *expvar.Map
}

// NewExpvar returns an Expvar sink publishing under name. Registering the
// same name twice reuses (and resets) the existing map instead of
// panicking, so tests and restarted components can share a name.
func NewExpvar(name string) *Expvar {
	if v := expvar.Get(name); v != nil {
		if m, ok := v.(*expvar.Map); ok {
			m.Init()
			return &Expvar{m: m}
		}
	}
	return &Expvar{m: expvar.NewMap(name)}
}

// Event implements telemetry.Recorder.
func (x *Expvar) Event(e telemetry.Event) {
	x.m.Add("events", 1)
	x.m.Add("events."+string(e.Kind()), 1)
	switch e := e.(type) {
	case telemetry.GenerationDone:
		x.m.Add("generations", 1)
	case telemetry.SearchStop:
		x.m.Add("searches", 1)
	case telemetry.RequestAccepted:
		x.m.Add("requests_accepted", 1)
	case telemetry.RequestShed:
		x.m.Add("requests_shed", 1)
	case telemetry.RequestDone:
		x.m.Add("requests_done", 1)
		if e.CacheHit {
			x.m.Add("cache_hits", 1)
		}
		if e.Outcome == "degraded" || e.Outcome == "fallback" {
			x.m.Add("degraded_responses", 1)
		}
	case telemetry.BreakerState:
		if e.To == "open" {
			x.m.Add("breaker_trips", 1)
		}
	case telemetry.ServerDrained:
		x.m.Add("drains", 1)
	case telemetry.JournalRecovered:
		x.m.Add("journal_recovered", 1)
	case telemetry.JournalSkipped:
		x.m.Add("journal_skipped", 1)
	}
}

// Add implements telemetry.Recorder.
func (x *Expvar) Add(c telemetry.Counters) {
	add := func(key string, v uint64) {
		if v != 0 {
			x.m.Add(key, int64(v))
		}
	}
	add("evaluations", c.Evaluations)
	add("memo_hits", c.MemoHits)
	add("sampled_points", c.SampledPoints)
	add("walk_steps", c.WalkSteps)
	add("classified_accesses", c.ClassifiedAccesses)
	add("walk_cap_hits", c.WalkCapHits)
	add("pool_hits", c.PoolHits)
	add("pool_misses", c.PoolMisses)
	add("evalcache_hits", c.EvalCacheHits)
	add("evalcache_misses", c.EvalCacheMisses)
	add("evalcache_evictions", c.EvalCacheEvictions)
}

// Map exposes the underlying expvar map (e.g. to compose dashboards).
func (x *Expvar) Map() *expvar.Map { return x.m }

// String renders the map as JSON with sorted keys — what -metrics dumps
// at exit.
func (x *Expvar) String() string { return x.m.String() }

// WriteTo writes the JSON rendering to w.
func (x *Expvar) WriteTo(w io.Writer) (int64, error) {
	n, err := fmt.Fprintln(w, x.m.String())
	return int64(n), err
}
