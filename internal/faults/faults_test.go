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

func mustPlan(t *testing.T, profile string, seed int64) *Plan {
	t.Helper()
	p, err := NewPlan(profile, seed, t0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	p := mustPlan(t, "lossy-wan", 7)
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
	p := mustPlan(t, "lossy-wan", 7)
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
	p := mustPlan(t, "lossy-wan", 7)
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
	p := mustPlan(t, "lossy-wan", 7)
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
	p := mustPlan(t, "lossy-wan", 7)
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

func TestUnknownProfile(t *testing.T) {
	if _, err := NewPlan("nope", 1, t0); err == nil {
		t.Fatal("want error for unknown profile")
	}
}

func TestLossyWANScheduleHitsOutages(t *testing.T) {
	p := mustPlan(t, "lossy-wan", 42)
	outages, degraded := 0, 0
	for off := time.Duration(0); off < time.Minute; off += time.Second {
		p.Clock.Advance(0)
		st := p.LinkState("campus-wan")
		_ = st
		probe, _ := NewPlan("lossy-wan", 42, t0) // fresh plan to probe offsets
		probe.Clock.Advance(off)
		st = probe.LinkState("campus-wan")
		if st.Down {
			outages++
		} else if st.SlowFactor > 1 {
			degraded++
		}
	}
	if outages == 0 || degraded == 0 {
		t.Fatalf("a 60s scan must cross outage and degradation windows; got down=%d slow=%d",
			outages, degraded)
	}
	if st := p.LinkState("lab-lan"); st.Down || st.SlowFactor != 1 {
		t.Fatalf("unscheduled link must stay healthy, got %+v", st)
	}
}

func TestStoreFaultCadence(t *testing.T) {
	p := mustPlan(t, "flaky-objstore", 3)
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
	if err := mustPlan(t, "lossy-wan", 3).StoreFault("put"); err != nil {
		t.Fatalf("lossy-wan must not inject objstore faults, got %v", err)
	}
}

func TestHeartbeatGapSchedule(t *testing.T) {
	p := mustPlan(t, "heartbeat-gap", 11)
	devs := p.ScriptDevices()
	if !reflect.DeepEqual(devs, []string{"chaos-pi-1", "chaos-pi-2"}) {
		t.Fatalf("ScriptDevices = %v", devs)
	}
	for _, d := range devs {
		silentAt := time.Time{}
		for off := time.Duration(0); off < 10*time.Minute; off += 5 * time.Second {
			if p.DeviceSilent(d, t0.Add(off)) {
				silentAt = t0.Add(off)
				break
			}
		}
		if silentAt.IsZero() {
			t.Fatalf("%s never goes silent in the first 10 minutes", d)
		}
		if p.DeviceSilent(d, t0) {
			t.Fatalf("%s must start healthy", d)
		}
	}
}

// TestPlanDeterminism is the satellite determinism test: the same seed and
// profile replayed through the same operation sequence yield identical
// attempt counts, fallback counts, injected tallies, registry snapshots,
// and total virtual elapsed time. Run under -race in CI.
func TestPlanDeterminism(t *testing.T) {
	run := func() (Summary, map[string]float64, time.Duration) {
		p := mustPlan(t, "chaos", 99)
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
	p := mustPlan(t, "flaky-objstore", 1)
	p.StoreFault("get")
	p.RecordAttempt("get")
	p.RecordFallback()
	got := p.Summary().String()
	want := "injected 1 (objstore 1), retry attempts 1, hybrid fallbacks 1"
	if got != want {
		t.Fatalf("Summary = %q, want %q", got, want)
	}
}
