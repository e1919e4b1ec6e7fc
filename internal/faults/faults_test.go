package faults

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

var t0 = time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)

func TestClockAdvanceAndCallbacks(t *testing.T) {
	c := NewClock(t0)
	if !c.Now().Equal(t0) {
		t.Fatalf("Now = %v, want %v", c.Now(), t0)
	}
	c.Advance(10 * time.Second)
	c.Advance(-5 * time.Second) // ignored
	c.Advance(20 * time.Second)
	want := t0.Add(30 * time.Second)
	if !c.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v (negative delta must be ignored)", c.Now(), want)
	}
}

func TestRetryableDetection(t *testing.T) {
	base := &Error{Kind: "link_outage", Op: "transfer"}
	if !Retryable(base) {
		t.Fatal("bare *Error should be retryable")
	}
	if !Retryable(fmt.Errorf("wrapped: %w", base)) {
		t.Fatal("wrapped *Error should stay retryable")
	}
	if Retryable(errors.New("plain")) {
		t.Fatal("plain error must not be retryable")
	}
	if Retryable(nil) {
		t.Fatal("nil must not be retryable")
	}
}

func TestBackoffGrowthAndClamp(t *testing.T) {
	p := Policy{BaseBackoff: time.Second, MaxBackoff: 4 * time.Second, Multiplier: 2}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 4 * time.Second} {
		if got := p.backoff(i+1, 0.5); got != want {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, want)
		}
	}
	p.Jitter = 0.5
	if got := p.backoff(1, 0); got != 500*time.Millisecond {
		t.Fatalf("jitter floor = %v, want 500ms", got)
	}
	if got := p.backoff(1, 1); got != 1500*time.Millisecond {
		t.Fatalf("jitter ceil = %v, want 1500ms", got)
	}
}

// mustPlan returns a plan at t0; every > 0 also arms one object-store
// window over [t0, t0+Horizon) failing every every-th attempt.
func mustPlan(t *testing.T, seed int64, every int) *Plan {
	t.Helper()
	p := NewPlan(seed, t0)
	if every > 0 {
		p.AddStoreWindows(every, Window{Start: t0, End: t0.Add(Horizon)})
	}
	return p
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	p := mustPlan(t, 7, 0)
	calls := 0
	err := p.Do("transfer", func(attempt int) (time.Duration, error) {
		calls++
		if attempt < 3 {
			return 0, &Error{Kind: "link_outage", Op: "transfer"}
		}
		return 2 * time.Second, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if s := p.Summary(); s.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", s.Attempts)
	}
	// Two backoffs plus the 2s success cost must all be on the clock.
	if elapsed := p.Clock.Now().Sub(t0); elapsed <= 2*time.Second {
		t.Fatalf("virtual elapsed %v should exceed the bare 2s attempt cost", elapsed)
	}
}

func TestDoNonRetryablePassesThrough(t *testing.T) {
	p := mustPlan(t, 7, 0)
	sentinel := errors.New("object not found")
	err := p.Do("get", func(int) (time.Duration, error) { return 0, sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if err != sentinel {
		t.Fatalf("first-attempt non-retryable error must return unwrapped, got %v", err)
	}
	if s := p.Summary(); s.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1", s.Attempts)
	}
}

func TestDoGivesUpAfterMaxAttempts(t *testing.T) {
	p := mustPlan(t, 7, 0)
	p.Retry.MaxAttempts = 4
	calls := 0
	err := p.Do("transfer", func(int) (time.Duration, error) {
		calls++
		return 0, &Error{Kind: "link_outage"}
	})
	if err == nil || calls != 4 {
		t.Fatalf("err = %v, calls = %d; want failure after 4", err, calls)
	}
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatalf("final error should wrap the fault: %v", err)
	}
}

func TestDoBudgetExhaustion(t *testing.T) {
	p := mustPlan(t, 7, 0)
	p.Retry.Budget = 3 * time.Second
	p.Retry.BaseBackoff = 2 * time.Second
	p.Retry.Jitter = 0
	err := p.Do("transfer", func(int) (time.Duration, error) {
		return time.Second, &Error{Kind: "link_outage"}
	})
	if err == nil {
		t.Fatal("want budget-exhaustion error")
	}
	if elapsed := p.Clock.Now().Sub(t0); elapsed > 3*time.Second {
		t.Fatalf("clock advanced %v past the 3s budget", elapsed)
	}
}

func TestDoAttemptTimeout(t *testing.T) {
	p := mustPlan(t, 7, 0)
	p.Retry.AttemptTimeout = time.Second
	calls := 0
	err := p.Do("rpc", func(attempt int) (time.Duration, error) {
		calls++
		if attempt == 1 {
			return 5 * time.Second, nil // too slow: becomes a retryable timeout
		}
		return 100 * time.Millisecond, nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("err = %v, calls = %d; want nil, 2", err, calls)
	}
	s := p.Summary()
	if s.Injected["timeout"] != 1 {
		t.Fatalf("Injected = %v, want one timeout", s.Injected)
	}
	// The slow attempt bills AttemptTimeout (1s), not its full 5s cost.
	if elapsed := p.Clock.Now().Sub(t0); elapsed >= 5*time.Second {
		t.Fatalf("elapsed %v, want < 5s (timeout should cap the billed cost)", elapsed)
	}
}

func TestStoreFaultCadence(t *testing.T) {
	p := mustPlan(t, 3, 3)
	var pattern []bool
	for i := 0; i < 6; i++ {
		pattern = append(pattern, p.StoreFault("put") != nil)
	}
	want := []bool{true, false, false, true, false, false}
	if !reflect.DeepEqual(pattern, want) {
		t.Fatalf("fault pattern = %v, want %v", pattern, want)
	}
	if s := p.Summary(); s.Injected["objstore"] != 2 {
		t.Fatalf("Injected = %v, want objstore 2", s.Injected)
	}
	if err := mustPlan(t, 3, 0).StoreFault("put"); err != nil {
		t.Fatalf("a plan without store windows must not inject objstore faults, got %v", err)
	}
}

// TestPlanDeterminism is the satellite determinism test: the same seed and
// schedule replayed through the same operation sequence yield identical
// attempt counts, fallback counts, injected tallies, registry snapshots,
// and total virtual elapsed time. Run under -race in CI.
func TestPlanDeterminism(t *testing.T) {
	run := func() (Summary, map[string]float64, time.Duration) {
		p := mustPlan(t, 99, 3)
		reg := obs.NewRegistry()
		p.Instrument(reg)
		for i := 0; i < 10; i++ {
			failUntil := 1 + i%3
			_ = p.Do("transfer", func(attempt int) (time.Duration, error) {
				if attempt <= failUntil {
					return 0, &Error{Kind: "link_outage", Op: "transfer"}
				}
				return 750 * time.Millisecond, nil
			})
			if p.StoreFault("put") != nil {
				p.RecordFallback()
			}
		}
		return p.Summary(), reg.Snapshot().Counters, p.Clock.Now().Sub(t0)
	}
	s1, c1, e1 := run()
	s2, c2, e2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("summaries differ:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("counter snapshots differ:\n%v\n%v", c1, c2)
	}
	if e1 != e2 {
		t.Fatalf("virtual elapsed differ: %v vs %v", e1, e2)
	}
	if s1.Attempts == 0 || e1 == 0 {
		t.Fatalf("run must actually retry and burn virtual time: %+v elapsed %v", s1, e1)
	}
}

func TestSummaryString(t *testing.T) {
	p := mustPlan(t, 1, 3)
	p.StoreFault("get")
	p.RecordAttempt("get")
	p.RecordFallback()
	got := p.Summary().String()
	want := "injected 1 (objstore 1), retry attempts 1, hybrid fallbacks 1"
	if got != want {
		t.Fatalf("Summary = %q, want %q", got, want)
	}
}
