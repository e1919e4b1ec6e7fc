package faults

import (
	"reflect"
	"testing"
	"time"
)

// TestClockScheduleFiresInOrder pins the event loop's ordering contract:
// timers fire in due-time order regardless of registration order, same-due
// timers fire in registration order, and each callback sees the clock
// parked at its due instant.
func TestClockScheduleFiresInOrder(t *testing.T) {
	c := NewClock(t0)
	var fired []string
	var at []time.Time
	rec := func(name string) func(time.Time) {
		return func(now time.Time) {
			fired = append(fired, name)
			at = append(at, now)
			if !c.Now().Equal(now) {
				t.Errorf("timer %s: Now() = %v, want parked at %v", name, c.Now(), now)
			}
		}
	}
	c.Schedule(t0.Add(30*time.Second), rec("late"))
	c.Schedule(t0.Add(10*time.Second), rec("early"))
	c.Schedule(t0.Add(10*time.Second), rec("early-2nd")) // same instant: registration order
	c.Advance(20 * time.Second)
	if want := []string{"early", "early-2nd"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("after +20s fired %v, want %v", fired, want)
	}
	if !at[0].Equal(t0.Add(10 * time.Second)) {
		t.Fatalf("early fired at %v, want %v", at[0], t0.Add(10*time.Second))
	}
	c.Advance(20 * time.Second)
	if want := []string{"early", "early-2nd", "late"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("after +40s fired %v, want %v", fired, want)
	}
}

// TestClockScheduleDueNow: a timer due at or before the current instant
// fires on the next Advance — including Advance(0) — at the current time,
// never in the past.
func TestClockScheduleDueNow(t *testing.T) {
	c := NewClock(t0)
	c.Advance(10 * time.Second)
	var got []time.Time
	c.Schedule(t0, func(now time.Time) { got = append(got, now) }) // already past
	c.Schedule(c.Now(), func(now time.Time) { got = append(got, now) })
	c.Advance(0)
	if len(got) != 2 {
		t.Fatalf("fired %d timers, want 2", len(got))
	}
	for i, g := range got {
		if !g.Equal(t0.Add(10 * time.Second)) {
			t.Fatalf("timer %d fired at %v, want clamped to now %v", i, g, t0.Add(10*time.Second))
		}
	}
}

// TestClockSelfReschedulingTick is the pattern heartbeat playback uses: a
// timer that re-schedules itself every period must fire at exact multiples
// of the period no matter how unevenly Advance moves the clock.
func TestClockSelfReschedulingTick(t *testing.T) {
	c := NewClock(t0)
	const period = 15 * time.Second
	var ticks []time.Time
	var tick func(now time.Time)
	next := t0.Add(period)
	tick = func(now time.Time) {
		ticks = append(ticks, now)
		next = next.Add(period)
		c.Schedule(next, tick)
	}
	c.Schedule(next, tick)
	for _, d := range []time.Duration{7 * time.Second, 40 * time.Second, 1 * time.Second, 52 * time.Second} {
		c.Advance(d)
	}
	// 100 seconds: ticks at 15, 30, 45, 60, 75, 90.
	want := []time.Time{
		t0.Add(15 * time.Second), t0.Add(30 * time.Second), t0.Add(45 * time.Second),
		t0.Add(60 * time.Second), t0.Add(75 * time.Second), t0.Add(90 * time.Second),
	}
	if !reflect.DeepEqual(ticks, want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
}

// TestClockNestedAdvanceFromTimer: a timer callback that advances the
// clock extends the in-progress drain instead of recursing, and timers the
// extension makes due still fire in order.
func TestClockNestedAdvanceFromTimer(t *testing.T) {
	c := NewClock(t0)
	var fired []string
	c.Schedule(t0.Add(10*time.Second), func(now time.Time) {
		fired = append(fired, "a")
		c.Advance(20 * time.Second) // queued: reaches t+30, making "b" due
	})
	c.Schedule(t0.Add(25*time.Second), func(now time.Time) {
		fired = append(fired, "b")
		if !now.Equal(t0.Add(25 * time.Second)) {
			t.Errorf("b fired at %v, want %v", now, t0.Add(25*time.Second))
		}
	})
	c.Advance(12 * time.Second)
	if want := []string{"a", "b"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if want := t0.Add(30 * time.Second); !c.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", c.Now(), want)
	}
}
