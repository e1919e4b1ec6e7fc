package netem

import (
	"fmt"
	"time"

	"repro/internal/faults"
)

// LinkPatch overrides a subset of a link's parameters; nil fields keep
// the base value. It is the mutation unit the scenario DSL and the
// netctl control plane share: a scenario phase or a live REST call sends
// a patch, not a whole link, so unspecified knobs follow the base
// profile.
type LinkPatch struct {
	Latency   *time.Duration
	Bandwidth *float64 // bytes per second
	LossRate  *float64
	Jitter    *time.Duration
}

// Zero reports whether the patch changes nothing.
func (p *LinkPatch) Zero() bool {
	return p == nil || (p.Latency == nil && p.Bandwidth == nil && p.LossRate == nil && p.Jitter == nil)
}

// LinkShape is what a shaper dictates for one link at one instant: a
// hard partition, a degradation factor, a parameter patch, or any
// combination. The zero value leaves the link untouched.
type LinkShape struct {
	Down   bool
	Factor float64 // >1 scales latency and jitter up and bandwidth down
	Patch  *LinkPatch
}

// Zero reports whether the shape leaves the link untouched.
func (sh LinkShape) Zero() bool {
	return !sh.Down && (sh.Factor == 0 || sh.Factor == 1) && sh.Patch.Zero()
}

// Apply returns the link reshaped: patch fields replace the base values,
// then the factor degrades the result. Down is not applied here —
// callers refuse service instead of computing with a dead link. A factor
// that scales latency or jitter past time.Duration's range is an
// ErrRange.
func (sh LinkShape) Apply(l Link) (Link, error) {
	if p := sh.Patch; p != nil {
		if p.Latency != nil {
			l.Latency = *p.Latency
		}
		if p.Bandwidth != nil {
			l.Bandwidth = *p.Bandwidth
		}
		if p.LossRate != nil {
			l.LossRate = *p.LossRate
		}
		if p.Jitter != nil {
			l.Jitter = *p.Jitter
		}
	}
	if f := sh.Factor; f > 1 {
		lat, err := nanos(float64(l.Latency)*f, l.Name, "latency")
		if err != nil {
			return l, err
		}
		jit, err := nanos(float64(l.Jitter)*f, l.Name, "jitter")
		if err != nil {
			return l, err
		}
		l.Latency, l.Jitter = lat, jit
		l.Bandwidth /= f
	}
	return l, nil
}

// Shaper answers what shape a named link has at an instant of virtual
// time, and when that shape next changes (zero time = never).
// Implementations must be safe for concurrent use: netem consults them
// on every transfer, possibly several times per transfer when the
// serialization window crosses a shape boundary.
type Shaper interface {
	ShapeAt(link string, at time.Time) (LinkShape, time.Time)
}

// SetShaper attaches a live link shaper and the virtual clock it is
// indexed by; nil detaches. It is netem's one link-fault path. Shaped
// transfers bill serialization piecewise: bytes moved before a shape change pay the old bandwidth and
// bytes after it pay the new one, so mid-run mutations (a scenario phase
// flipping, a netctl POST) take effect on traffic already in flight.
func (n *Net) SetShaper(s Shaper, now func() time.Time) {
	n.mu.Lock()
	n.shaper = s
	n.shaperNow = now
	n.mu.Unlock()
}

func (n *Net) shaperState() (Shaper, func() time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.shaper == nil || n.shaperNow == nil {
		return nil, nil
	}
	return n.shaper, n.shaperNow
}

// EffectiveLink reports what the base link looks like right now with the
// attached shaper applied (the probe and the netctl display both compare
// against it). ok is false while the link is partitioned; the returned
// parameters are still the shaped ones so callers can render them.
func (n *Net) EffectiveLink(l Link) (eff Link, ok bool, err error) {
	s, now := n.shaperState()
	if s == nil {
		return l, true, nil
	}
	shape, _ := s.ShapeAt(l.Name, now())
	eff, err = shape.Apply(l)
	return eff, !shape.Down, err
}

// partitionErr is the typed refusal for a shaper-declared partition; it
// is retryable so fault-aware callers back off and try again once the
// phase ends.
func (n *Net) partitionErr(link, op string) error {
	n.mu.Lock()
	plan := n.faults
	n.mu.Unlock()
	if plan != nil {
		plan.RecordInjection("link_partition")
	}
	return fmt.Errorf("netem: %s partitioned: %w", link,
		&faults.Error{Kind: "link_partition", Op: op})
}

// shapedSerialize integrates wire bytes over the shape timeline starting
// at t0: each segment between shape changes contributes capacity at that
// segment's bandwidth, and Down segments contribute nothing (the flow
// stalls and resumes). base is the link before shaping. Returns the
// serialization duration, or an error when the link partitions with no
// scheduled recovery.
func (n *Net) shapedSerialize(s Shaper, base Link, wire float64, t0 time.Time) (time.Duration, error) {
	remaining := wire
	t := t0
	// A shaper with a pathological timeline (epochs every nanosecond)
	// could make this loop crawl; bound it far above any real scenario.
	for i := 0; i < 1<<16; i++ {
		shape, next := s.ShapeAt(base.Name, t)
		if shape.Down {
			if next.IsZero() || !next.After(t) {
				return 0, n.partitionErr(base.Name, "transfer")
			}
			t = next
			continue
		}
		eff, err := shape.Apply(base)
		if err != nil {
			return 0, err
		}
		bw := eff.Bandwidth
		if bw <= 0 {
			return 0, fmt.Errorf("netem: shaped bandwidth on %s must be positive", base.Name)
		}
		need, err := nanos(remaining/bw*float64(time.Second), base.Name, "serialization")
		if err != nil {
			return 0, err
		}
		if next.IsZero() || !next.After(t) || !t.Add(need).After(next) {
			return t.Add(need).Sub(t0), nil
		}
		remaining -= bw * next.Sub(t).Seconds()
		if remaining < 0 {
			remaining = 0
		}
		t = next
	}
	return 0, fmt.Errorf("netem: shape timeline for %s never settles", base.Name)
}
