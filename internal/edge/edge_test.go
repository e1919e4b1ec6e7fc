package edge

import (
	"errors"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2023, 9, 1, 10, 0, 0, 0, time.UTC)

// connectedDevice enrolls and connects a device whitelisted for "edu".
func connectedDevice(t *testing.T, h *Hub) *Device {
	t.Helper()
	d, err := h.RegisterDevice("donkeycar-1", "student1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.FlashImage(d.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Boot(d.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.Whitelist(d.ID, "edu"); err != nil {
		t.Fatal(err)
	}
	return d
}

// evict takes a connected device offline the way the control plane does:
// its daemon checks in, falls silent, and a sweep one heartbeat window
// later drops it.
func evict(t *testing.T, h *Hub, id string) {
	t.Helper()
	if err := h.Heartbeat(id, t0); err != nil {
		t.Fatal(err)
	}
	if dropped := h.SweepHeartbeats(t0.Add(HeartbeatWindow)); len(dropped) != 1 || dropped[0] != id {
		t.Fatalf("sweep dropped %v, want [%s]", dropped, id)
	}
}

func TestLifecycleOrderEnforced(t *testing.T) {
	h := NewHub()
	d, err := h.RegisterDevice("car", "alice")
	if err != nil {
		t.Fatal(err)
	}
	// Boot before flash must fail.
	if _, err := h.Boot(d.ID); err == nil {
		t.Error("boot before flash accepted")
	}
	if _, err := h.FlashImage(d.ID); err != nil {
		t.Fatal(err)
	}
	// Double flash from flashed state is invalid.
	if _, err := h.FlashImage(d.ID); err == nil {
		t.Error("re-flash of flashed device accepted")
	}
	if _, err := h.Boot(d.ID); err != nil {
		t.Fatal(err)
	}
	got, err := h.Device(d.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusConnected {
		t.Errorf("status %s", got.Status)
	}
	// Offline devices can be re-flashed (new SD card).
	evict(t, h, d.ID)
	if _, err := h.FlashImage(d.ID); err != nil {
		t.Errorf("re-flash offline device: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	h := NewHub()
	if _, err := h.RegisterDevice("", "x"); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := h.RegisterDevice("x", ""); err == nil {
		t.Error("empty owner accepted")
	}
	if _, err := h.FlashImage("dev-9999"); !errors.Is(err, ErrNoDevice) {
		t.Errorf("got %v", err)
	}
}

func TestLaunchContainerChecks(t *testing.T) {
	h := NewHub()
	d := connectedDevice(t, h)

	// Wrong project.
	if _, err := h.LaunchContainer(d.ID, "other", "img", 1<<20, t0); !errors.Is(err, ErrNotWhitelisted) {
		t.Errorf("got %v", err)
	}
	// Good launch.
	c, err := h.LaunchContainer(d.ID, "edu", "autolearn:latest", 500<<20, t0)
	if err != nil {
		t.Fatal(err)
	}
	if !c.ReadyAt.After(t0) {
		t.Error("container ready instantly")
	}
	// Device busy.
	if _, err := h.LaunchContainer(d.ID, "edu", "img2", 1<<20, t0); !errors.Is(err, ErrBusy) {
		t.Errorf("got %v", err)
	}
	// Bad args.
	if _, err := h.LaunchContainer(d.ID, "edu", "", 1, t0); err == nil {
		t.Error("empty image accepted")
	}
	if _, err := h.LaunchContainer(d.ID, "edu", "i", 0, t0); err == nil {
		t.Error("zero-size image accepted")
	}
}

func TestLaunchRequiresConnected(t *testing.T) {
	h := NewHub()
	d, _ := h.RegisterDevice("car", "bob")
	h.Whitelist(d.ID, "edu")
	if _, err := h.LaunchContainer(d.ID, "edu", "img", 1, t0); !errors.Is(err, ErrNotConnected) {
		t.Errorf("got %v", err)
	}
}

func TestPullTimeScalesWithImage(t *testing.T) {
	h := NewHub()
	d1 := connectedDevice(t, h)
	small, err := h.LaunchContainer(d1.ID, "edu", "small", 10<<20, t0)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := h.RegisterDevice("car2", "x")
	h.FlashImage(d2.ID)
	h.Boot(d2.ID)
	h.Whitelist(d2.ID, "edu")
	big, err := h.LaunchContainer(d2.ID, "edu", "big", 1000<<20, t0)
	if err != nil {
		t.Fatal(err)
	}
	if !big.ReadyAt.After(small.ReadyAt) {
		t.Error("big image not slower to pull")
	}
}

func TestJupyterIdempotent(t *testing.T) {
	h := NewHub()
	d := connectedDevice(t, h)
	c, err := h.LaunchContainer(d.ID, "edu", "img", 1<<20, t0)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := h.StartJupyter(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := h.StartJupyter(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j1.TunnelPort != j2.TunnelPort || j1.Token != j2.Token {
		t.Error("second StartJupyter returned a different server")
	}
	if j1.Token == "" || j1.TunnelPort == 0 {
		t.Error("jupyter endpoint incomplete")
	}
	if _, err := h.StartJupyter("ctr-999"); !errors.Is(err, ErrNoContainer) {
		t.Errorf("got %v", err)
	}
}

func TestZeroToReadyPathway(t *testing.T) {
	h := NewHub()
	res, err := h.ZeroToReady("donkeycar-7", "student7", "edu", "autolearn:latest", 800<<20, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Device.Status != StatusConnected {
		t.Errorf("device status %s", res.Device.Status)
	}
	if res.Container == nil || res.Jupyter == nil {
		t.Fatal("missing container or jupyter")
	}
	if len(res.Steps) != 6 {
		t.Errorf("got %d steps, want 6", len(res.Steps))
	}
	var sum time.Duration
	for _, s := range res.Steps {
		if s.Duration < 0 {
			t.Errorf("step %s negative", s.Name)
		}
		sum += s.Duration
	}
	if sum != res.Total {
		t.Errorf("total %v != step sum %v", res.Total, sum)
	}
	// Flash dominates zero-to-ready; the whole pathway is minutes not hours.
	if res.Total < 3*time.Minute || res.Total > 20*time.Minute {
		t.Errorf("zero-to-ready took %v, want minutes-scale", res.Total)
	}
}

func TestConcurrentEnrollment(t *testing.T) {
	h := NewHub()
	var wg sync.WaitGroup
	ids := make([]string, 20)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := h.ZeroToReady("car", "owner", "edu", "img", 1<<20, t0)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = res.Device.ID
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if d, err := h.Device(id); err != nil || d.Status != StatusConnected || seen[id] {
			t.Errorf("device %q: %+v, %v (duplicate %v)", id, d, err, seen[id])
		}
		seen[id] = true
	}
}

func TestHeartbeatLifecycle(t *testing.T) {
	h := NewHub()
	d := connectedDevice(t, h)
	c, err := h.LaunchContainer(d.ID, "edu", "img", 1<<20, t0)
	if err != nil {
		t.Fatal(err)
	}
	// Regular heartbeats keep the device alive.
	if err := h.Heartbeat(d.ID, t0); err != nil {
		t.Fatal(err)
	}
	if dropped := h.SweepHeartbeats(t0.Add(30 * time.Second)); len(dropped) != 0 {
		t.Errorf("healthy device dropped: %v", dropped)
	}
	// Silence beyond the window drops the device and reaps its container.
	dropped := h.SweepHeartbeats(t0.Add(HeartbeatWindow + time.Minute))
	if len(dropped) != 1 || dropped[0] != d.ID {
		t.Fatalf("dropped = %v", dropped)
	}
	got, err := h.Device(d.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusOffline {
		t.Errorf("status %s", got.Status)
	}
	if _, err := h.StartJupyter(c.ID); !errors.Is(err, ErrNoContainer) {
		t.Errorf("container survived the reap: %v", err)
	}
	// Heartbeats from offline devices are rejected.
	if err := h.Heartbeat(d.ID, t0); !errors.Is(err, ErrNotConnected) {
		t.Errorf("offline heartbeat: %v", err)
	}
	if err := h.Heartbeat("ghost", t0); !errors.Is(err, ErrNoDevice) {
		t.Errorf("got %v", err)
	}
}

func TestSweepGracePeriodForFreshDevices(t *testing.T) {
	h := NewHub()
	d := connectedDevice(t, h)
	// Never heartbeated: the first sweep only starts the clock.
	if dropped := h.SweepHeartbeats(t0); len(dropped) != 0 {
		t.Errorf("fresh device dropped immediately: %v", dropped)
	}
	// Still silent past the window: now it drops.
	dropped := h.SweepHeartbeats(t0.Add(HeartbeatWindow + time.Second))
	if len(dropped) != 1 || dropped[0] != d.ID {
		t.Errorf("dropped = %v", dropped)
	}
}
