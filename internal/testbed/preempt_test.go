package testbed

import (
	"errors"
	"testing"
	"time"
)

func TestPreemptLease(t *testing.T) {
	tb, s := educationSession(t)
	l, err := s.Reserve(NodeFilter{GPU: V100}, t0, t0.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(l.ID, "img", t0); err != nil {
		t.Fatal(err)
	}

	if err := tb.PreemptLease(l.ID); err != nil {
		t.Fatal(err)
	}
	// The lease is gone from the calendar.
	if _, err := s.Deploy(l.ID, "img", t0.Add(time.Minute)); !errors.Is(err, ErrNoLease) {
		t.Errorf("deploy on preempted lease: %v, want ErrNoLease", err)
	}

	// The victim re-reserves the same SKU and must land on a sibling node
	// (the dead one is in maintenance).
	l2, err := s.Reserve(NodeFilter{GPU: V100}, t0, t0.Add(2*time.Hour))
	if err != nil {
		t.Fatalf("re-reserve after preemption: %v", err)
	}
	if l2.NodeID == l.NodeID {
		t.Errorf("scheduler reused the preempted node %s", l.NodeID)
	}

	if err := tb.PreemptLease("ghost"); !errors.Is(err, ErrNoLease) {
		t.Errorf("unknown lease: %v, want ErrNoLease", err)
	}
}
