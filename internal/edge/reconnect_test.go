package edge

import (
	"testing"
	"time"
)

// Regression: a device that drops offline and reconnects must not be
// evicted by the next sweep because of a heartbeat timestamp left over
// from its previous connected spell. Before the fix, lastSeen survived
// the offline -> FlashImage -> Boot cycle, so a sweep landing more than
// HeartbeatWindow after the *old* heartbeat killed the freshly
// reconnected device before its daemon could check in.
func TestReconnectThenSweepKeepsDevice(t *testing.T) {
	h := NewHub()
	d := connectedDevice(t, h)

	// Wi-Fi drops; the student later reflashes and boots the car back up.
	evict(t, h, d.ID)
	if _, err := h.FlashImage(d.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Boot(d.ID); err != nil {
		t.Fatal(err)
	}

	// The sweep lands after the pre-outage heartbeat has aged past the
	// window but before the reconnected daemon's first check-in. The
	// reconnected device must get the fresh-device grace period, not an
	// eviction off the stale timestamp.
	sweepAt := t0.Add(HeartbeatWindow + 30*time.Second)
	if dropped := h.SweepHeartbeats(sweepAt); len(dropped) != 0 {
		t.Fatalf("reconnected device evicted off its stale pre-outage heartbeat: %v", dropped)
	}
	got, err := h.Device(d.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusConnected {
		t.Fatalf("status = %s, want %s", got.Status, StatusConnected)
	}

	// A post-reconnect heartbeat keeps it alive through the next window.
	if err := h.Heartbeat(d.ID, sweepAt.Add(15*time.Second)); err != nil {
		t.Fatal(err)
	}
	if dropped := h.SweepHeartbeats(sweepAt.Add(time.Minute)); len(dropped) != 0 {
		t.Fatalf("fresh heartbeat ignored by sweep: %v", dropped)
	}
}
