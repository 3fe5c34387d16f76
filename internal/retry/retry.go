// Package retry implements bounded retries with capped exponential
// backoff for the transient-failure paths of the search pipeline:
// checkpoint persistence and telemetry sink writes. The clock is
// injectable (Policy.Sleep) so tests run without real delays, and every
// wait honours the caller's context.
package retry

import (
	"context"
	"fmt"
	"time"
)

// Policy bounds a retried operation. The zero value is usable: it means
// DefaultAttempts tries with DefaultBase backoff doubling up to
// DefaultMax, sleeping on the real clock.
type Policy struct {
	// Attempts is the total number of tries, including the first
	// (0 = DefaultAttempts). 1 disables retries.
	Attempts int
	// Base is the delay before the first retry; it doubles per retry
	// (0 = DefaultBase).
	Base time.Duration
	// Max caps the per-retry delay (0 = DefaultMax).
	Max time.Duration
	// Sleep waits out one backoff delay. Nil means a context-aware
	// real-clock sleep that aborts promptly — and returns the context's
	// error — the moment the context is cancelled mid-sleep; tests inject
	// a recording fake.
	Sleep func(ctx context.Context, d time.Duration) error
}

// The zero-Policy defaults: three tries, 2ms backoff doubling to a 50ms
// cap — enough to ride out transient I/O hiccups without stalling a
// search noticeably.
const (
	DefaultAttempts = 3
	DefaultBase     = 2 * time.Millisecond
	DefaultMax      = 50 * time.Millisecond
)

// withDefaults fills the zero fields.
func (p Policy) withDefaults() Policy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultAttempts
	}
	if p.Base <= 0 {
		p.Base = DefaultBase
	}
	if p.Max <= 0 {
		p.Max = DefaultMax
	}
	if p.Sleep == nil {
		p.Sleep = sleep
	}
	return p
}

// sleep is the default context-aware clock.
func sleep(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
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

// Do runs fn up to p.Attempts times, backing off between tries, and
// returns nil on the first success. Once the context is done no further
// attempt is made: the last attempt's error is returned immediately
// (wrapped with the attempt count when retries were actually spent).
// A nil ctx is treated as context.Background().
func (p Policy) Do(ctx context.Context, fn func() error) error {
	p = p.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	delay := p.Base
	for attempt := 1; ; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if attempt >= p.Attempts || ctx.Err() != nil {
			if attempt > 1 {
				return fmt.Errorf("retry: %d attempts: %w", attempt, err)
			}
			return err
		}
		if serr := p.Sleep(ctx, delay); serr != nil {
			// The context expired mid-backoff; the operation's own error
			// is the interesting one.
			return fmt.Errorf("retry: %d attempts (backoff interrupted): %w", attempt, err)
		}
		if delay *= 2; delay > p.Max {
			delay = p.Max
		}
	}
}
