package edge

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestPlayBeatsSweepsAndReconnects drives the shared heartbeat playback
// with the plan's default pacing (beats every 15 s, sweeps every 45 s, so
// every sweep instant is also a beat instant) over three members:
//   - steady never goes silent;
//   - late checks in last at 45 s and stays silent until exactly 135 s,
//     so it survives the 135 s sweep only because the beat due at the
//     same instant fires first;
//   - gone is silent from the start until 136 s: the 45 s sweep stamps
//     its first observation, the 135 s sweep evicts it (silent for exactly
//     HeartbeatWindow), and the 150 s beat re-onboards it.
func TestPlayBeatsSweepsAndReconnects(t *testing.T) {
	h := NewHub()
	reg := obs.NewRegistry()
	h.Instrument(reg)
	plan := faults.NewPlan(1, t0)
	plan.AddSilenceWindow("late", faults.Window{Start: t0.Add(46 * time.Second), End: t0.Add(135 * time.Second)})
	plan.AddSilenceWindow("gone", faults.Window{Start: t0, End: t0.Add(136 * time.Second)})
	ids := map[string]string{}
	var members []Member
	for _, name := range []string{"steady", "late", "gone"} {
		d, err := h.RegisterDevice(name, "play-test")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.FlashImage(d.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Boot(d.ID); err != nil {
			t.Fatal(err)
		}
		ids[name] = d.ID
		members = append(members, Member{Name: name, ID: d.ID})
	}
	var evicted []string
	h.Play(plan, members, func(id string) { evicted = append(evicted, id) })

	status := func(name string) DeviceStatus {
		t.Helper()
		d, err := h.Device(ids[name])
		if err != nil {
			t.Fatal(err)
		}
		return d.Status
	}
	beats := func() float64 { return reg.Snapshot().Counters["edge_heartbeats_total"] }
	at := func(d time.Duration) {
		plan.Clock.Advance(t0.Add(d).Sub(plan.Clock.Now()))
	}

	at(14 * time.Second)
	if n := beats(); n != 0 {
		t.Fatalf("%v heartbeats before the first beat is due", n)
	}
	at(15 * time.Second)
	if n := beats(); n != 2 { // steady and late; gone is silent
		t.Fatalf("heartbeats at 15s = %v, want 2", n)
	}

	at(135 * time.Second)
	if want := []string{ids["gone"]}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted by 135s = %v, want %v", evicted, want)
	}
	if st := status("late"); st != StatusConnected {
		t.Fatalf("late = %s at 135s: the sweep fired before the beat due at the same instant", st)
	}
	if st := status("gone"); st != StatusOffline {
		t.Fatalf("gone = %s at 135s, want %s", st, StatusOffline)
	}

	// gone's window has closed by the 150 s beat: it re-onboards through
	// flash and boot, then checks in with the others.
	before := beats()
	at(150 * time.Second)
	if st := status("gone"); st != StatusConnected {
		t.Fatalf("gone = %s at 150s, want reconnected", st)
	}
	if n := beats() - before; n != 3 {
		t.Fatalf("heartbeats at 150s = %v, want 3", n)
	}

	// Everyone checks in from here on: no further evictions.
	at(10 * time.Minute)
	if want := []string{ids["gone"]}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted by 10m = %v, want only gone once", evicted)
	}
	for name := range ids {
		if st := status(name); st != StatusConnected {
			t.Fatalf("%s = %s at 10m, want connected", name, st)
		}
	}
	// late skipped 60-120 s (5 beats), gone skipped 15-135 s (9 beats).
	if n := plan.Summary().Injected["heartbeat_gap"]; n != 14 {
		t.Fatalf("heartbeat_gap injections = %d, want 14", n)
	}
}

// TestPlayWithoutMembers: a playback with nobody to drive schedules
// nothing, so the hub's other devices are never swept by it.
func TestPlayWithoutMembers(t *testing.T) {
	h := NewHub()
	d := connectedDevice(t, h)
	plan := faults.NewPlan(1, t0)
	h.Play(plan, nil, nil)
	plan.Clock.Advance(time.Hour)
	got, err := h.Device(d.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusConnected {
		t.Fatalf("non-member device = %s after an hour, want untouched", got.Status)
	}
}
