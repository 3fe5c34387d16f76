package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// counter is the recorder every run attaches through the public Observer
// fields: it sums the counter deltas and drops events, as cheap as the
// expvar sink tilingd always runs with. The work self-check reads it.
type counter struct {
	mu sync.Mutex
	c  telemetry.Counters
}

func (r *counter) Event(telemetry.Event) {}

func (r *counter) Add(d telemetry.Counters) {
	r.mu.Lock()
	r.c = r.c.Plus(d)
	r.mu.Unlock()
}

func (r *counter) snapshot() telemetry.Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.c
}

// capture is the traced run's in-memory recorder: counters, per-tier
// evaluation-cache lookups, and the arrival time of every lifecycle event.
type capture struct {
	counter
	mu     sync.Mutex
	tiers  map[string][2]int // tier -> {hits, misses}
	events []timedEvent
}

type timedEvent struct {
	At time.Time
	E  telemetry.Event
}

func newCapture() *capture { return &capture{tiers: map[string][2]int{}} }

func (r *capture) Event(e telemetry.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e := e.(type) {
	case telemetry.EvalCacheHit:
		t := r.tiers[e.Tier]
		t[0]++
		r.tiers[e.Tier] = t
	case telemetry.EvalCacheMiss:
		t := r.tiers[e.Tier]
		t[1]++
		r.tiers[e.Tier] = t
	case telemetry.EvaluationBatch, telemetry.EvalCacheEvict:
		// Counted through the counter deltas.
	default:
		r.events = append(r.events, timedEvent{At: time.Now(), E: e})
	}
}

func (r *capture) tierCounts(tier string) (hits, misses int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tiers[tier]
	return t[0], t[1]
}

func (r *capture) lifecycle() []timedEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]timedEvent(nil), r.events...)
}

// span is one timed call into a layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent, op int, fn func(id int)) time.Duration {
	id := t.begin(name, parent, op)
	start := time.Now()
	fn(id)
	d := time.Since(start)
	t.end(id)
	return d
}

// layerTime sums, per span name, total and self time. Self time is a
// span's duration minus the part of it its children cover (the union of
// their intervals, so concurrent children are not counted twice).
func (t *tracer) layerTime() (total, self map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		d := s.End - s.Start
		total[s.Name] += time.Duration(d)
		self[s.Name] += time.Duration(d - covered(s, children[s.ID]))
		count[s.Name]++
	}
	return total, self, count
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, curLo, curHi int64
	open := false
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if open && lo <= curHi {
			curHi = max(curHi, hi)
			continue
		}
		if open {
			sum += curHi - curLo
		}
		curLo, curHi, open = lo, hi, true
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
