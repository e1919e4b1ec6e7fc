package faults

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the virtual timebase fault schedules are evaluated against, and
// — since the fleet-scale refactor — the repo's discrete-event scheduler.
// Nothing in this package sleeps: waiting (backoff, provisioning, drives)
// advances the clock, and schedules answer "what is broken at this
// instant". Timers registered with Schedule fire in (due-time, registration)
// order as Advance moves the clock past them, so heartbeat playback, lease
// expiry, and transfer completions all run off one deterministic event
// loop instead of ad-hoc per-subsystem catch-up. It is safe for concurrent
// use.
type Clock struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers timerHeap
	// draining marks an Advance in progress. A nested Advance (a timer
	// callback moving time itself) must not recurse into the drain — the
	// next timer would then fire inside the callback that is still running
	// — so its target is queued and the outer drain absorbs it.
	draining bool
	pending  []time.Time
}

// timer is one scheduled callback; seq breaks due-time ties in
// registration order so same-instant events replay deterministically.
type timer struct {
	at  time.Time
	seq uint64
	fn  func(now time.Time)
}

// timerHeap is a min-heap over (at, seq).
type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// NewClock starts a virtual clock at the given instant.
func NewClock(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Schedule registers fn to run when virtual time reaches at. Timers due at
// or before the current time fire on the next Advance (including
// Advance(0)); timers sharing a due instant fire in registration order. fn
// runs outside the clock's lock with the clock parked at its due time, so
// it may read Now, Schedule more timers (the usual self-rescheduling tick
// pattern), and even Advance — a nested Advance is queued and drained by
// the in-progress one.
func (c *Clock) Schedule(at time.Time, fn func(now time.Time)) {
	c.mu.Lock()
	c.seq++
	heap.Push(&c.timers, &timer{at: at, seq: c.seq, fn: fn})
	c.mu.Unlock()
}

// Advance moves the clock forward by d (non-positive deltas leave the time
// unchanged but still fire due timers), firing every timer due in (at,
// registration) order with the clock parked at each timer's due instant.
// A callback that calls Advance again does not recurse: the nested target
// is queued and this drain extends to cover it, so virtual time moves
// monotonically through every callback. Returns the time the clock
// reached; for a queued nested call that is the target the outer drain
// will reach.
func (c *Clock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	target := c.now
	if d > 0 {
		target = c.now.Add(d)
	}
	if c.draining {
		c.pending = append(c.pending, target)
		c.mu.Unlock()
		return target
	}
	c.draining = true
	for {
		// Absorb targets queued by nested Advance calls; the drain covers
		// the furthest one requested so far.
		for _, p := range c.pending {
			if p.After(target) {
				target = p
			}
		}
		c.pending = c.pending[:0]
		if len(c.timers) == 0 || c.timers[0].at.After(target) {
			break
		}
		t := heap.Pop(&c.timers).(*timer)
		if t.at.After(c.now) {
			c.now = t.at
		}
		fireAt := c.now
		c.mu.Unlock()
		t.fn(fireAt)
		c.mu.Lock()
	}
	if target.After(c.now) {
		c.now = target
	}
	c.draining = false
	now := c.now
	c.mu.Unlock()
	return now
}
