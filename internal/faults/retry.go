package faults

import (
	"fmt"
	"math"
	"time"
)

// Policy is a reusable retry policy: exponential backoff with jitter, a
// per-attempt timeout, and a cap on the total virtual time a single
// operation may burn across attempts. All waiting is virtual — backoff
// advances the plan's clock instead of sleeping — so resilience tests run
// at full speed and stay reproducible.
type Policy struct {
	// MaxAttempts bounds the attempt count (minimum 1).
	MaxAttempts int
	// BaseBackoff is the wait after the first failed attempt; each further
	// failure multiplies it by Multiplier up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	Multiplier  float64
	// Jitter spreads each backoff uniformly over [1-Jitter, 1+Jitter]
	// using the plan's seeded RNG (0 disables).
	Jitter float64
	// AttemptTimeout fails an attempt whose virtual cost exceeds it (the
	// caller gives up waiting); timeouts are retryable. 0 disables.
	AttemptTimeout time.Duration
	// Budget caps the total virtual time (attempt costs plus backoff) one
	// operation may consume before giving up. 0 disables.
	Budget time.Duration
}

// DefaultPolicy suits the campus-WAN failure modes the profiles inject:
// backoff grows past the longest outage window well within the budget.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts:    8,
		BaseBackoff:    500 * time.Millisecond,
		MaxBackoff:     30 * time.Second,
		Multiplier:     2,
		Jitter:         0.2,
		AttemptTimeout: 2 * time.Minute,
		Budget:         10 * time.Minute,
	}
}

// backoff returns the wait before attempt+1, jittered by u in [0, 1).
func (p Policy) backoff(attempt int, u float64) time.Duration {
	mult := p.Multiplier
	if mult < 1 {
		mult = 1
	}
	b := float64(p.BaseBackoff) * math.Pow(mult, float64(attempt-1))
	if max := float64(p.MaxBackoff); p.MaxBackoff > 0 && b > max {
		b = max
	}
	if p.Jitter > 0 {
		b *= 1 + p.Jitter*(2*u-1)
	}
	return time.Duration(b)
}

// Do runs fn under the plan's retry policy. fn returns the virtual
// duration the attempt consumed and its error; on success the clock
// advances by that cost and Do returns nil. Retryable failures (see
// Retryable) back off — advancing the clock, so partitions actually
// pass — and try again; other errors return unchanged so callers keep
// their errors.Is behavior. Every attempt, including the first, counts
// into retry_attempts_total.
func (pl *Plan) Do(op string, fn func(attempt int) (cost time.Duration, err error)) error {
	pol := pl.Retry
	max := pol.MaxAttempts
	if max < 1 {
		max = 1
	}
	var spent time.Duration
	var lastErr error
	for attempt := 1; attempt <= max; attempt++ {
		pl.RecordAttempt(op)
		cost, err := fn(attempt)
		if err == nil && pol.AttemptTimeout > 0 && cost > pol.AttemptTimeout {
			// The operation "completed" but slower than the caller was
			// willing to wait: bill the timeout and retry.
			err = &Error{Kind: "timeout", Op: op}
			cost = pol.AttemptTimeout
			pl.RecordInjection("timeout")
		}
		if cost > 0 {
			pl.Clock.Advance(cost)
			spent += cost
		}
		if err == nil {
			return nil
		}
		lastErr = err
		if !Retryable(err) {
			if attempt == 1 {
				return err
			}
			return fmt.Errorf("faults: %s attempt %d: %w", op, attempt, err)
		}
		if attempt == max {
			break
		}
		wait := pol.backoff(attempt, pl.randFloat())
		if pol.Budget > 0 && spent+wait >= pol.Budget {
			return fmt.Errorf("faults: %s retry budget %v exhausted after %d attempts: %w",
				op, pol.Budget, attempt, lastErr)
		}
		pl.Clock.Advance(wait)
		spent += wait
	}
	return fmt.Errorf("faults: %s failed after %d attempts: %w", op, max, lastErr)
}
