package faults

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestDoEdgeCases pins the exact boundary behavior of the retry loop:
// where the budget check bites relative to the clock, how zero jitter
// degenerates, and what a per-attempt timeout shorter than the backoff
// bills. All cases use Multiplier 1 and Jitter 0 so expected virtual
// elapsed times are exact.
func TestDoEdgeCases(t *testing.T) {
	retryable := &Error{Kind: "link_outage", Op: "transfer"}
	sentinel := errors.New("permission denied")

	cases := []struct {
		name   string
		policy Policy
		fn     func(attempt int) (time.Duration, error)

		wantCalls   int
		wantElapsed time.Duration // exact virtual time on the clock after Do
		wantErr     string        // substring of the error, "" for success
		wantErrIs   error         // errors.Is target, nil to skip
	}{
		{
			// spent+wait == Budget exactly: the >= comparison gives up
			// BEFORE advancing the clock by the backoff, so the clock
			// shows only the attempt cost.
			name: "budget exhausted exactly at deadline",
			policy: Policy{MaxAttempts: 5, BaseBackoff: 2 * time.Second,
				Multiplier: 1, Budget: 3 * time.Second},
			fn: func(int) (time.Duration, error) {
				return time.Second, retryable
			},
			wantCalls:   1,
			wantElapsed: time.Second,
			wantErr:     "retry budget",
			wantErrIs:   retryable,
		},
		{
			// One nanosecond of headroom past the boundary lets the wait
			// through; the second attempt then exhausts it.
			name: "budget one nanosecond past the boundary",
			policy: Policy{MaxAttempts: 5, BaseBackoff: 2 * time.Second,
				Multiplier: 1, Budget: 3*time.Second + time.Nanosecond},
			fn: func(int) (time.Duration, error) {
				return time.Second, retryable
			},
			wantCalls:   2,
			wantElapsed: 4 * time.Second, // 1s + 2s wait + 1s
			wantErr:     "retry budget",
		},
		{
			// Jitter 0 must ignore the RNG entirely: three failures with
			// Multiplier 1 put exactly 3 costs + 2 base backoffs on the
			// clock, bit-exact, regardless of the plan's seed.
			name: "zero jitter is exact",
			policy: Policy{MaxAttempts: 3, BaseBackoff: 500 * time.Millisecond,
				Multiplier: 1},
			fn: func(int) (time.Duration, error) {
				return 100 * time.Millisecond, retryable
			},
			wantCalls:   3,
			wantElapsed: 3*100*time.Millisecond + 2*500*time.Millisecond,
			wantErr:     "failed after 3 attempts",
		},
		{
			// AttemptTimeout shorter than the backoff: every too-slow
			// "success" bills the timeout (not its real cost), then waits
			// the full backoff, which dominates the budget burn.
			name: "attempt timeout shorter than backoff",
			policy: Policy{MaxAttempts: 3, BaseBackoff: 2 * time.Second,
				Multiplier: 1, AttemptTimeout: 500 * time.Millisecond},
			fn: func(int) (time.Duration, error) {
				return 10 * time.Second, nil // slow success -> timeout
			},
			wantCalls:   3,
			wantElapsed: 3*500*time.Millisecond + 2*2*time.Second,
			wantErr:     "failed after 3 attempts",
		},
		{
			// A fast-enough success after one timeout recovers; the slow
			// attempt still bills only the timeout.
			name: "timeout then recovery",
			policy: Policy{MaxAttempts: 3, BaseBackoff: 2 * time.Second,
				Multiplier: 1, AttemptTimeout: 500 * time.Millisecond},
			fn: func(attempt int) (time.Duration, error) {
				if attempt == 1 {
					return 10 * time.Second, nil
				}
				return 100 * time.Millisecond, nil
			},
			wantCalls:   2,
			wantElapsed: 500*time.Millisecond + 2*time.Second + 100*time.Millisecond,
		},
		{
			// MaxAttempts below 1 still runs the operation once.
			name:   "zero max attempts runs once",
			policy: Policy{MaxAttempts: 0, BaseBackoff: time.Second, Multiplier: 1},
			fn: func(int) (time.Duration, error) {
				return time.Second, retryable
			},
			wantCalls:   1,
			wantElapsed: time.Second,
			wantErr:     "failed after 1 attempts",
		},
		{
			// Multiplier below 1 clamps to 1: backoff must not shrink.
			name: "sub-unit multiplier clamps",
			policy: Policy{MaxAttempts: 3, BaseBackoff: time.Second,
				Multiplier: 0.25},
			fn: func(int) (time.Duration, error) {
				return 0, retryable
			},
			wantCalls:   3,
			wantElapsed: 2 * time.Second, // two 1s backoffs, never 250ms
			wantErr:     "failed after 3 attempts",
		},
		{
			// A non-retryable error after a retryable one is wrapped with
			// attempt context but keeps errors.Is identity.
			name: "non-retryable after retry is wrapped",
			policy: Policy{MaxAttempts: 5, BaseBackoff: time.Second,
				Multiplier: 1},
			fn: func(attempt int) (time.Duration, error) {
				if attempt == 1 {
					return 0, retryable
				}
				return 0, sentinel
			},
			wantCalls:   2,
			wantElapsed: time.Second, // the single backoff
			wantErr:     "attempt 2",
			wantErrIs:   sentinel,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustPlan(t, 7, 0)
			p.Retry = tc.policy
			calls := 0
			err := p.Do("op", func(attempt int) (time.Duration, error) {
				calls++
				return tc.fn(attempt)
			})
			if calls != tc.wantCalls {
				t.Errorf("calls = %d, want %d", calls, tc.wantCalls)
			}
			if elapsed := p.Clock.Now().Sub(t0); elapsed != tc.wantElapsed {
				t.Errorf("virtual elapsed = %v, want exactly %v", elapsed, tc.wantElapsed)
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
			if tc.wantErrIs != nil && !errors.Is(err, tc.wantErrIs) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.wantErrIs)
			}
		})
	}
}

// TestZeroJitterSeedIndependence runs the same zero-jitter policy under
// two plans with different seeds and requires identical virtual
// schedules — the degenerate-jitter path may not consume or depend on
// the RNG stream.
func TestZeroJitterSeedIndependence(t *testing.T) {
	elapsed := func(seed int64) time.Duration {
		p := mustPlan(t, seed, 0)
		p.Retry = Policy{MaxAttempts: 4, BaseBackoff: 700 * time.Millisecond,
			MaxBackoff: 2 * time.Second, Multiplier: 2}
		_ = p.Do("op", func(int) (time.Duration, error) {
			return 50 * time.Millisecond, &Error{Kind: "link_outage"}
		})
		return p.Clock.Now().Sub(t0)
	}
	a, b := elapsed(1), elapsed(999)
	if a != b {
		t.Fatalf("zero-jitter schedules differ across seeds: %v vs %v", a, b)
	}
	// 4 attempts x 50ms + backoffs 700ms + 1.4s + 2s (clamped).
	want := 4*50*time.Millisecond + 700*time.Millisecond + 1400*time.Millisecond + 2*time.Second
	if a != want {
		t.Fatalf("elapsed = %v, want exactly %v", a, want)
	}
}
