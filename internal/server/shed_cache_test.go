package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/telemetry"
)

// retryAfterSeconds parses the Retry-After header and requires a positive
// integer number of seconds — the contract for every shed response.
func retryAfterSeconds(t *testing.T, h http.Header) int {
	t.Helper()
	raw := h.Get("Retry-After")
	if raw == "" {
		t.Fatal("shed response missing Retry-After")
	}
	secs, err := strconv.Atoi(raw)
	if err != nil {
		t.Fatalf("Retry-After = %q, want an integer: %v", raw, err)
	}
	if secs <= 0 {
		t.Fatalf("Retry-After = %d, want > 0", secs)
	}
	return secs
}

// shedReasons collects the RequestShed reasons the capture recorded.
func shedReasons(cap *telemetry.Capture) []string {
	var reasons []string
	for _, e := range cap.Events() {
		if rs, ok := e.(telemetry.RequestShed); ok {
			reasons = append(reasons, rs.Reason)
		}
	}
	return reasons
}

// TestShedQueueFullRetryAfter: the queue-full rejection carries a 429 and
// a positive integer Retry-After, even with the default config where no
// RetryAfter was set explicitly.
func TestShedQueueFullRetryAfter(t *testing.T) {
	s, _, cap := testServer(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	release, err := s.gate.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/tile", nil)
	if _, ok := s.admit(rec, req); ok {
		t.Fatal("admit succeeded with the only slot held and no queue")
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	retryAfterSeconds(t, rec.Header())
	if got := shedReasons(cap); len(got) != 1 || got[0] != "queue_full" {
		t.Fatalf("shed reasons = %v, want [queue_full]", got)
	}
}

// TestShedSlotTimeoutRetryAfter: a request whose context expires while it
// waits in the queue is shed like any other overload — 503, a positive
// integer Retry-After, and a slot_timeout telemetry event — instead of
// the bare error body it used to get.
func TestShedSlotTimeoutRetryAfter(t *testing.T) {
	s, _, cap := testServer(t, Config{MaxConcurrent: 1, QueueDepth: 4, RetryAfter: 0})
	release, err := s.gate.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the waiter's context is already dead when it queues
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/tile", nil).WithContext(ctx)
	if _, ok := s.admit(rec, req); ok {
		t.Fatal("admit succeeded with a dead request context and the slot held")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	retryAfterSeconds(t, rec.Header())
	if got := shedReasons(cap); len(got) != 1 || got[0] != "slot_timeout" {
		t.Fatalf("shed reasons = %v, want [slot_timeout]", got)
	}
}
