package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeSleep records requested delays and never waits.
func fakeSleep(log *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*log = append(*log, d)
		return nil
	}
}

func TestFirstTrySuccessNoSleep(t *testing.T) {
	var slept []time.Duration
	p := Policy{Sleep: fakeSleep(&slept)}
	calls := 0
	if err := p.Do(context.Background(), func() error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(slept) != 0 {
		t.Fatalf("calls=%d slept=%v", calls, slept)
	}
}

func TestTransientFailureRecovered(t *testing.T) {
	var slept []time.Duration
	p := Policy{Attempts: 3, Base: time.Millisecond, Max: 10 * time.Millisecond, Sleep: fakeSleep(&slept)}
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("backoff sequence = %v", slept)
	}
}

func TestBackoffCapped(t *testing.T) {
	var slept []time.Duration
	p := Policy{Attempts: 6, Base: 4 * time.Millisecond, Max: 10 * time.Millisecond, Sleep: fakeSleep(&slept)}
	fail := errors.New("always")
	err := p.Do(context.Background(), func() error { return fail })
	if !errors.Is(err, fail) {
		t.Fatalf("err = %v", err)
	}
	want := []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
}

func TestAttemptsExhaustedReportsCount(t *testing.T) {
	var slept []time.Duration
	p := Policy{Attempts: 3, Sleep: fakeSleep(&slept)}
	fail := errors.New("persistent")
	err := p.Do(context.Background(), func() error { return fail })
	if !errors.Is(err, fail) {
		t.Fatalf("cause lost: %v", err)
	}
	if got := err.Error(); got != "retry: 3 attempts: persistent" {
		t.Fatalf("err = %q", got)
	}
}

func TestSingleAttemptErrorUnwrapped(t *testing.T) {
	p := Policy{Attempts: 1}
	fail := errors.New("once")
	if err := p.Do(context.Background(), func() error { return fail }); err != fail {
		t.Fatalf("single-attempt error was wrapped: %v", err)
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := Policy{Attempts: 5, Sleep: func(context.Context, time.Duration) error { return nil }}
	err := p.Do(ctx, func() error {
		calls++
		cancel()
		return errors.New("fail then cancel")
	})
	if err == nil || calls != 1 {
		t.Fatalf("calls=%d err=%v; want 1 call and the fn error", calls, err)
	}
}

func TestContextCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	fail := errors.New("transient")
	p := Policy{Attempts: 5, Sleep: func(ctx context.Context, _ time.Duration) error {
		cancel()
		return ctx.Err()
	}}
	err := p.Do(ctx, func() error { return fail })
	if !errors.Is(err, fail) {
		t.Fatalf("err = %v, want the operation error", err)
	}
}

// TestCancelMidSleepAbortsPromptly cancels the context in the middle of a
// real-clock backoff sleep and requires Do to return well before the
// nominal delay elapses — the property the server's drain path depends on.
func TestCancelMidSleepAbortsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fail := errors.New("transient")
	p := Policy{Attempts: 2, Base: 30 * time.Second, Max: 30 * time.Second}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := p.Do(ctx, func() error { return fail })
	elapsed := time.Since(start)
	if !errors.Is(err, fail) {
		t.Fatalf("err = %v, want the operation error", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("backoff sleep ignored the mid-sleep cancel (took %v)", elapsed)
	}
}

func TestDefaultSleepHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := sleep(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("sleep = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("sleep ignored the cancelled context")
	}
}
