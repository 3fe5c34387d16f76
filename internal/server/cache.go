package server

import "sync"

// computed is what one search computes for a request: the response bytes
// plus the outcome metadata the breaker and telemetry need.
type computed struct {
	body      []byte
	outcome   string // "ok", "degraded", "fallback"
	cacheable bool
	failure   bool // counts against the circuit breaker
}

// flightGroup deduplicates concurrent identical requests (singleflight):
// the first caller of a key computes, everyone else arriving before it
// finishes waits for and shares the same result, so a thundering herd of
// identical requests costs one search.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	res  computed
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn once per key at a time; concurrent callers share the leader's
// result. shared reports that this caller rode along instead of computing.
func (g *flightGroup) do(key string, fn func() (computed, error)) (res computed, shared bool, err error) {
	g.mu.Lock()
	if call, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-call.done
		return call.res, true, call.err
	}
	call := &flightCall{done: make(chan struct{})}
	g.calls[key] = call
	g.mu.Unlock()

	call.res, call.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(call.done)
	return call.res, false, call.err
}
