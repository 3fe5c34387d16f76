package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// testServer builds a server with test-friendly bounds and a capture
// recorder.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *telemetry.Capture) {
	t.Helper()
	cap := &telemetry.Capture{}
	if cfg.Observer == nil {
		cfg.Observer = cap
	} else {
		cfg.Observer = telemetry.Multi(cfg.Observer, cap)
	}
	if cfg.DefaultTimeout == 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, cap
}

// post sends one tile request and returns the status, body and the cache
// header.
func post(t *testing.T, url string, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/tile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header
}

// fastRequest is a small bounded request that completes in well under a
// second: a budget-bounded search is deterministic per seed, which the
// cache tests rely on.
const fastRequest = `{"kernel":"MM","size":48,"cache":"8k","seed":7,"maxEvaluations":40,"timeoutMs":30000}`

func TestTileAndCacheHitByteIdentical(t *testing.T) {
	_, ts, cap := testServer(t, Config{})
	st, body1, hdr1 := post(t, ts.URL, fastRequest)
	if st != http.StatusOK {
		t.Fatalf("first request: status %d body %s", st, body1)
	}
	if got := hdr1.Get("X-Tilingd-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	var r TileResponse
	if err := json.Unmarshal(body1, &r); err != nil {
		t.Fatalf("bad response body: %v", err)
	}
	if len(r.Tile) == 0 || r.Degraded || r.Fallback {
		t.Fatalf("unexpected response %+v", r)
	}
	if r.Stopped != "budget" {
		t.Fatalf("stopped = %q, want budget (maxEvaluations hit)", r.Stopped)
	}

	st, body2, hdr2 := post(t, ts.URL, fastRequest)
	if st != http.StatusOK {
		t.Fatalf("second request: status %d", st)
	}
	if got := hdr2.Get("X-Tilingd-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit not byte-identical:\nmiss: %s\nhit:  %s", body1, body2)
	}

	var accepted, hits int
	for _, e := range cap.Events() {
		switch e := e.(type) {
		case telemetry.RequestAccepted:
			accepted++
		case telemetry.RequestDone:
			if e.CacheHit {
				hits++
			}
		}
	}
	if accepted != 2 || hits != 1 {
		t.Fatalf("accepted=%d cacheHits=%d, want 2 and 1", accepted, hits)
	}
}

func TestInlineSourceRequest(t *testing.T) {
	_, ts, _ := testServer(t, Config{})
	src := "array a(64,64) real8\narray b(64,64) real8\ndo i = 1, 64\n  do j = 1, 64\n    read a(i, j)\n    write b(j, i)\n  end\nend\n"
	req, _ := json.Marshal(TileRequest{Source: src, Cache: "8k", Seed: 3, MaxEvaluations: 30, TimeoutMs: 30000})
	st, body, _ := post(t, ts.URL, string(req))
	if st != http.StatusOK {
		t.Fatalf("status %d body %s", st, body)
	}
	var r TileResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Tile) != 2 || !strings.HasPrefix(r.Kernel, "inline:") {
		t.Fatalf("response %+v", r)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := testServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"unknown kernel", `{"kernel":"NOPE","cache":"8k"}`},
		{"bad cache", `{"kernel":"MM","cache":"huge"}`},
		{"no kernel", `{"cache":"8k"}`},
		{"bad mode", `{"kernel":"MM","cache":"8k","mode":"mystery"}`},
		{"unknown field", `{"kernel":"MM","cache":"8k","bogus":1}`},
		{"negative bound", `{"kernel":"MM","cache":"8k","maxEvaluations":-1}`},
		{"bad source", `{"source":"do i = 1,","cache":"8k"}`},
		{"oversized sample", fmt.Sprintf(`{"kernel":"MM","cache":"8k","samplePoints":%d}`, maxSamplePoints+1)},
	}
	for _, c := range cases {
		st, body, _ := post(t, ts.URL, c.body)
		if st != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", c.name, st, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %s not a JSON error", c.name, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/tile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/tile: status %d, want 405", resp.StatusCode)
	}
}

// TestBudgetBelowIslandsIsBadRequest: a budget below the island count is
// refused as a 400 before admission. It must not reach the search, fail
// there with a 500 and count against the breaker, or five of them would
// open it and degrade the next healthy request to the fallback tile.
func TestBudgetBelowIslandsIsBadRequest(t *testing.T) {
	_, ts, _ := testServer(t, Config{})
	const bad = `{"kernel":"MM","size":40,"cache":"8k","islands":4,"maxEvaluations":3}`
	for i := 0; i < 5; i++ {
		st, body, _ := post(t, ts.URL, bad)
		if st != http.StatusBadRequest {
			t.Fatalf("request %d: status %d body %s, want 400", i, st, body)
		}
	}
	st, body, _ := post(t, ts.URL, fastRequest)
	if st != http.StatusOK {
		t.Fatalf("healthy request: status %d body %s", st, body)
	}
	var r TileResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Fallback || r.Stopped == "fallback" {
		t.Fatalf("healthy request got the fallback tile: %s", body)
	}
	if b := healthOf(t, ts.URL).Breaker; b != "closed" {
		t.Fatalf("breaker = %q after bad requests, want closed", b)
	}
}

// healthOf reads the server's /healthz body.
func healthOf(t *testing.T, url string) health {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestTimeoutNormalization(t *testing.T) {
	s, err := New(Config{DefaultTimeout: 7 * time.Second, MaxTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.normalize(TileRequest{Kernel: "MM", Cache: "8k"})
	if err != nil {
		t.Fatal(err)
	}
	if n.timeout != 7*time.Second {
		t.Fatalf("default timeout = %v, want 7s", n.timeout)
	}
	n, err = s.normalize(TileRequest{Kernel: "MM", Cache: "8k", TimeoutMs: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if n.timeout != 20*time.Second {
		t.Fatalf("capped timeout = %v, want 20s", n.timeout)
	}
}

func TestCacheKeyCoversResultRelevantFields(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := TileRequest{Kernel: "MM", Cache: "8k", Seed: 1}
	k0, err := s.normalize(base)
	if err != nil {
		t.Fatal(err)
	}
	variants := []TileRequest{
		{Kernel: "MM", Cache: "8k", Seed: 2},
		{Kernel: "MM", Cache: "32k", Seed: 1},
		{Kernel: "MM", Cache: "8k", Seed: 1, Mode: "order"},
		{Kernel: "MM", Cache: "8k", Seed: 1, MaxEvaluations: 5},
		{Kernel: "MM", Cache: "8k", Seed: 1, TimeoutMs: 1234},
		{Kernel: "MM", Size: 100, Cache: "8k", Seed: 1},
	}
	for i, v := range variants {
		kv, err := s.normalize(v)
		if err != nil {
			t.Fatal(err)
		}
		if kv.key == k0.key {
			t.Errorf("variant %d has the same cache key as the base request", i)
		}
	}
	// Workers is result-invariant and must NOT split the cache.
	kw, err := s.normalize(TileRequest{Kernel: "MM", Cache: "8k", Seed: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if kw.key != k0.key {
		t.Fatal("worker count split the cache key; results are worker-invariant")
	}
}

func TestHealthz(t *testing.T) {
	s, ts, _ := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Breaker != "closed" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}

	go s.Drain(context.Background())
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGateShedsPastQueue(t *testing.T) {
	g := newGate(1, 1)
	rel1, err := g.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Second acquirer waits in the queue.
	queued := make(chan struct{})
	var rel2 func()
	var err2 error
	go func() {
		rel2, err2 = g.acquire(context.Background())
		close(queued)
	}()
	waitFor(t, func() bool { return g.queued() == 1 })
	// Third is shed: slot busy, queue full.
	if _, err := g.acquire(context.Background()); !errors.Is(err, errQueueFull) {
		t.Fatalf("third acquire = %v, want errQueueFull", err)
	}
	rel1()
	<-queued
	if err2 != nil {
		t.Fatalf("queued acquire = %v", err2)
	}
	rel2()
	if g.running() != 0 || g.queued() != 0 {
		t.Fatalf("gate not drained: running=%d queued=%d", g.running(), g.queued())
	}
}

func TestGateWaiterLeavesOnCancel(t *testing.T) {
	g := newGate(1, 4)
	rel, err := g.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.acquire(ctx)
		done <- err
	}()
	waitFor(t, func() bool { return g.queued() == 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter stuck in queue")
	}
	waitFor(t, func() bool { return g.queued() == 0 })
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	var calls int
	var mu sync.Mutex
	release := make(chan struct{})
	fn := func() (computed, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-release
		return computed{body: []byte("X")}, nil
	}
	const n = 5
	var wg sync.WaitGroup
	shared := make([]bool, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, sh, err := g.do("k", fn)
			if err != nil {
				t.Error(err)
			}
			shared[i], bodies[i] = sh, res.body
		}(i)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return calls == 1 })
	// All five callers are now either the leader or waiting on it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	leaders := 0
	for i := range shared {
		if !shared[i] {
			leaders++
		}
		if string(bodies[i]) != "X" {
			t.Fatalf("caller %d body %q", i, bodies[i])
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	cap := &telemetry.Capture{}
	b := newBreaker(2, time.Minute, clock, cap)

	if ok, _ := b.allow(); !ok {
		t.Fatal("closed breaker refused a request")
	}
	b.record(false, false)
	if ok, _ := b.allow(); !ok {
		t.Fatal("one failure below threshold must not trip")
	}
	b.record(false, false)
	if b.current() != breakerOpen {
		t.Fatalf("state after threshold failures = %v", b.current())
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("open breaker allowed a search before cooldown")
	}

	now = now.Add(2 * time.Minute)
	ok, probe := b.allow()
	if !ok || !probe {
		t.Fatalf("post-cooldown allow = (%v, %v), want a probe", ok, probe)
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("half-open breaker allowed a second concurrent search")
	}
	b.record(false, true) // probe fails: reopen
	if b.current() != breakerOpen {
		t.Fatalf("state after failed probe = %v", b.current())
	}

	now = now.Add(2 * time.Minute)
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatal("second probe refused")
	}
	b.record(true, true) // probe succeeds: close
	if b.current() != breakerClosed {
		t.Fatalf("state after successful probe = %v", b.current())
	}
	if ok, probe := b.allow(); !ok || probe {
		t.Fatal("closed breaker must allow ordinary searches again")
	}

	var transitions []string
	for _, e := range cap.Events() {
		if bs, ok := e.(telemetry.BreakerState); ok {
			transitions = append(transitions, bs.From+">"+bs.To)
		}
	}
	want := []string{"closed>open", "open>half-open", "half-open>open", "open>half-open", "half-open>closed"}
	if fmt.Sprint(transitions) != fmt.Sprint(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
