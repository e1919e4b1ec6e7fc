package scenario

import (
	"reflect"
	"testing"
	"time"
)

func mustProfile(t *testing.T, name string, seed int64) *Runtime {
	t.Helper()
	s, err := Profile(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(s, seed, tableEpoch)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestUnknownProfile(t *testing.T) {
	if _, err := Profile("nope", 1); err == nil {
		t.Fatal("want error for unknown profile")
	}
}

// Every generated profile is a valid scenario whose canonical form
// parses back to the same AST, and the seed alone decides it.
func TestProfilesRoundTrip(t *testing.T) {
	for _, name := range Profiles() {
		a, err := Profile(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ParseString(Format(a))
		if err != nil {
			t.Fatalf("%s: canonical form rejected: %v", name, err)
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("%s: round trip diverged", name)
		}
		if b, _ := Profile(name, 5); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed generated different scenarios", name)
		}
		if c, _ := Profile(name, 6); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds generated the same scenario", name)
		}
	}
}

func TestLossyWANScheduleHitsOutages(t *testing.T) {
	tab := mustProfile(t, "lossy-wan", 42).Table()
	partitioned, degraded := 0, 0
	for off := time.Duration(0); off < time.Minute; off += time.Second {
		sh, _ := tab.ShapeAt("campus-wan", tableEpoch.Add(off))
		if sh.Down {
			partitioned++
		} else if sh.Factor > 1 {
			degraded++
		}
	}
	if partitioned == 0 || degraded == 0 {
		t.Fatalf("a 60s scan must cross partition and degradation windows; got down=%d slow=%d",
			partitioned, degraded)
	}
	if sh, _ := tab.ShapeAt("lab-lan", tableEpoch.Add(10*time.Second)); !sh.Zero() {
		t.Fatalf("unscheduled link must stay healthy, got %+v", sh)
	}
}

func TestFlakyObjstoreCadence(t *testing.T) {
	plan := mustProfile(t, "flaky-objstore", 3).Plan()
	var pattern []bool
	for i := 0; i < 6; i++ {
		pattern = append(pattern, plan.StoreFault("put") != nil)
	}
	if want := []bool{true, false, false, true, false, false}; !reflect.DeepEqual(pattern, want) {
		t.Fatalf("fault pattern = %v, want %v", pattern, want)
	}
}

func TestHeartbeatGapSchedule(t *testing.T) {
	plan := mustProfile(t, "heartbeat-gap", 11).Plan()
	devs := plan.ScriptDevices()
	if !reflect.DeepEqual(devs, []string{"chaos-pi-1", "chaos-pi-2"}) {
		t.Fatalf("ScriptDevices = %v", devs)
	}
	for _, d := range devs {
		if plan.DeviceSilent(d, tableEpoch) {
			t.Fatalf("%s must start healthy", d)
		}
		silent := false
		for off := time.Duration(0); off < 10*time.Minute && !silent; off += 5 * time.Second {
			silent = plan.DeviceSilent(d, tableEpoch.Add(off))
		}
		if !silent {
			t.Fatalf("%s never goes silent in the first 10 minutes", d)
		}
	}
}

// The preempt and chaos profiles draw the preemption point in
// [0.35, 0.65), and the runtime hands it to the plan.
func TestPreemptFraction(t *testing.T) {
	for _, name := range []string{"preempt", "chaos"} {
		for seed := int64(1); seed <= 20; seed++ {
			rt := mustProfile(t, name, seed)
			f := rt.Scenario().Preempt
			if f < 0.35 || f >= 0.65 {
				t.Fatalf("%s seed %d: preempt %g outside [0.35, 0.65)", name, seed, f)
			}
			if rt.Plan().PreemptAfterFrac != f {
				t.Fatalf("%s seed %d: plan preempts at %g, scenario at %g",
					name, seed, rt.Plan().PreemptAfterFrac, f)
			}
		}
	}
}
