package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/obs"
)

const runtimeScenario = `scenario v1
name runtime-test
link campus-wan
phase 0s..30s clean
phase 30s..1m shape link=campus-wan bandwidth=2Mbps
phase 1m..2m objstore every=2
phase 90s..2m silence device=pi-1
`

func TestRuntimeSchedulesPhases(t *testing.T) {
	s := mustParse(t, runtimeScenario)
	rt, err := NewRuntime(s, 3, tableEpoch)
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	o := obs.Observer{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
	var events []Event
	rt.SetEventHook(func(e Event) { events = append(events, e) })
	rt.Start(o)

	rt.Clock().Advance(2 * time.Minute)
	if got := rt.Transitions(); got != 4 {
		t.Fatalf("transitions = %d, want 4", got)
	}
	if len(events) != 4 || events[1].Kind != Shape || events[3].Target != "device:pi-1" {
		t.Fatalf("events = %+v", events)
	}
	if n := rt.Finish(); n != 4 {
		t.Fatalf("Finish = %d", n)
	}

	var phases int
	for _, sp := range o.Tracer.Finished() {
		switch sp.Name {
		case "scenario_phase":
			phases++
		}
	}
	if phases != 4 {
		t.Fatalf("scenario_phase spans = %d, want 4", phases)
	}
	snap := o.Metrics.Snapshot()
	if total := snap.Counters["scenario_transitions_total"]; total != 4 {
		t.Fatalf("scenario_transitions_total = %v", total)
	}
	if byKind := snap.Counters[`scenario_transitions_total{kind="shape"}`]; byKind != 1 {
		t.Fatalf("shape transitions = %v", byKind)
	}
}

func TestRuntimeStoreAndSilenceWindows(t *testing.T) {
	s := mustParse(t, runtimeScenario)
	rt, err := NewRuntime(s, 3, tableEpoch)
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	plan := rt.Plan()
	// Outside the objstore window the store is healthy no matter how
	// many attempts happen.
	for i := 0; i < 10; i++ {
		if err := plan.StoreFault("put"); err != nil {
			t.Fatalf("store fault outside window: %v", err)
		}
	}
	plan.Clock.Advance(90 * time.Second) // into the 1m..2m window
	saw := 0
	for i := 0; i < 10; i++ {
		if err := plan.StoreFault("put"); err != nil {
			saw++
		}
	}
	if saw != 5 { // every 2nd attempt inside the window
		t.Fatalf("store faults inside window = %d, want 5", saw)
	}
	if plan.DeviceSilent("pi-1", tableEpoch.Add(100*time.Second)) != true {
		t.Fatal("pi-1 should be silent at 1m40s")
	}
	if plan.DeviceSilent("pi-1", tableEpoch.Add(10*time.Second)) {
		t.Fatal("pi-1 silent outside its window")
	}
	if devs := plan.ScriptDevices(); len(devs) != 1 || devs[0] != "pi-1" {
		t.Fatalf("ScriptDevices = %v", devs)
	}

	// Each objstore phase keeps its own cadence and attempt count: a later
	// phase's every= must not rewrite an earlier one's.
	s = mustParse(t, `scenario v1
name two-store-windows
link campus-wan
phase 1m..2m objstore every=2
phase 3m..4m objstore every=5
`)
	if rt, err = NewRuntime(s, 3, tableEpoch); err != nil {
		t.Fatalf("runtime: %v", err)
	}
	plan = rt.Plan()
	for _, w := range []struct {
		at   time.Duration
		want []int // failing attempts, 1-based
	}{
		{90 * time.Second, []int{1, 3, 5, 7, 9}},
		{210 * time.Second, []int{1, 6}},
	} {
		plan.Clock.Advance(tableEpoch.Add(w.at).Sub(plan.Clock.Now()))
		var failed []int
		for i := 1; i <= 10; i++ {
			if plan.StoreFault("put") != nil {
				failed = append(failed, i)
			}
		}
		if !reflect.DeepEqual(failed, w.want) {
			t.Fatalf("at %v: failing attempts %v, want %v", w.at, failed, w.want)
		}
	}
}

// Attach points netem at the runtime: transfers must see the scenario's
// shapes as the clock crosses phase boundaries.
func TestRuntimeAttachShapesTransfers(t *testing.T) {
	s := mustParse(t, runtimeScenario)
	rt, err := NewRuntime(s, 3, tableEpoch)
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	n := netem.NewNet(3)
	rt.Attach(n)

	link := netem.Link{Name: "campus-wan", Bandwidth: 12.5e6} // zero latency/jitter/loss: exact math
	res, err := n.Transfer(link, 1_250_000)
	if err != nil {
		t.Fatalf("clean transfer: %v", err)
	}
	if res.Duration != 100*time.Millisecond {
		t.Fatalf("clean transfer = %v, want 100ms", res.Duration)
	}
	rt.Clock().Advance(45 * time.Second) // into the 2 Mbit/s shape phase
	res, err = n.Transfer(link, 250_000)
	if err != nil {
		t.Fatalf("shaped transfer: %v", err)
	}
	if res.Duration != time.Second { // 250 kB at 0.25e6 B/s
		t.Fatalf("shaped transfer = %v, want 1s", res.Duration)
	}
}

// A file-pinned seed beats the caller's seed, and Describe mentions it.
func TestRuntimeSeedPin(t *testing.T) {
	s := mustParse(t, "scenario v1\nname pinned\nseed 99\nlink wan\nphase 0s..1m clean\n")
	rt, err := NewRuntime(s, 3, tableEpoch)
	if err != nil {
		t.Fatalf("runtime: %v", err)
	}
	if rt.Seed() != 99 {
		t.Fatalf("seed = %d, want the file's 99", rt.Seed())
	}
	if !strings.Contains(rt.Describe(), "pinned") {
		t.Fatalf("describe = %q", rt.Describe())
	}
}
