// Package faults is the deterministic fault-injection and resilience layer
// of the continuum: a plan holding the virtual clock and the schedules a
// scenario installs (transient object-store errors, device heartbeat
// silence, GPU-node preemption; link faults live in the scenario's shape
// table), plus a reusable retry policy (exponential backoff with jitter,
// per-attempt timeout, total budget) that accrues virtual time through
// the clock instead of sleeping. Schedules are installed up front and
// consulted read-only, and backoff jitter draws from the plan's own RNG in
// call order, so every run with the same scenario and seed replays
// byte-for-byte.
package faults

import (
	"errors"
	"time"
)

// Error is a typed, retryable fault injected by a schedule. Substrates
// return it (usually wrapped) so callers can distinguish transient
// injected failures from real programming errors.
type Error struct {
	Kind string // e.g. "link_partition", "objstore", "timeout"
	Op   string // the operation that was refused
}

// Error implements error.
func (e *Error) Error() string {
	if e.Op == "" {
		return "faults: " + e.Kind
	}
	return "faults: " + e.Kind + " during " + e.Op
}

// Retryable marks the fault as transient.
func (e *Error) Retryable() bool { return true }

// Retryable reports whether err, or anything it wraps, is marked
// retryable (implements `Retryable() bool` returning true). Real errors —
// missing objects, validation failures — are not, and short-circuit the
// retry loop.
func Retryable(err error) bool {
	var r interface{ Retryable() bool }
	return errors.As(err, &r) && r.Retryable()
}

// Window is one half-open interval [Start, End) of virtual time during
// which a fault is active.
type Window struct {
	Start, End time.Time
}

func (w Window) contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}
