package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// chaosRun drives the whole Fig. 1 loop — collect, clean, train,
// evaluate, hybrid evaluate — under the generated "chaos" profile and
// returns the metrics snapshot of the fault plan and the instrumented
// module (edge heartbeats and sweeps, netem, testbed, pipeline stages,
// scenario transitions) and the exported trace. Its counters (not
// histograms) are the determinism contract for metrics: they depend only
// on the seeded schedules and operation counts, never on wall-clock
// timing. The trace runs on the scenario's virtual clock, so it is
// byte-identical across same-seed runs.
func chaosRun(t *testing.T, seed int64) (obs.Snapshot, []byte) {
	t.Helper()
	m := fastModule(t)
	o := obs.NewObserver()
	m.Instrument(o)
	scn, err := scenario.Profile("chaos", seed)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := scenario.NewRuntime(scn, seed, t0)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(o)
	rt.Attach(m.Net)
	plan := rt.Plan()
	s, err := m.Enroll("student", "mu")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPipeline(s, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableFaults(plan); err != nil {
		t.Fatal(err)
	}

	col, err := p.CollectData(Simulator, "chaos-drive", 600)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CleanData(col.TubDir); err != nil {
		t.Fatal(err)
	}
	tr, err := p.Train(col.TubDir, pilot.Linear, testbed.V100, defaultPipelineTrainConfig(), plan.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.History.Epochs) == 0 {
		t.Fatal("no training happened under chaos")
	}
	if _, err := p.Evaluate(tr.ModelObject, EdgePlacement, DefaultPlacementModel(m.Net), 300); err != nil {
		t.Fatal(err)
	}
	dc := pilot.DefaultDistillConfig()
	dc.Shrink = 4
	dc.Train = nn.TrainConfig{Epochs: 3, BatchSize: 32, ValFrac: 0.1, Seed: 3}
	hv, err := p.EvaluateHybrid(tr.ModelObject, DefaultPlacementModel(m.Net), dc, 0.4, 300)
	if err != nil {
		t.Fatal(err)
	}
	if hv.Report.Records == 0 {
		t.Error("hybrid evaluation produced no records under chaos")
	}
	p.EndTrace()
	rt.Finish()
	var trace bytes.Buffer
	if err := o.Tracer.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	return o.Metrics.Snapshot(), trace.Bytes()
}

// The acceptance test for the fault layer: the full pipeline completes
// under every fault class at once, every new series is nonzero, no label
// key on any series reaches obs.MaxLabelCardinality values, two same-seed
// runs land on byte-identical counter snapshots and traces, and the
// snapshot matches the checked-in golden (regenerate with
// UPDATE_GOLDEN=1), so a refactor of the fault path that changes any
// count fails here even when it changes every run the same way.
func TestChaosPipelineCompletesAndIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models twice under chaos")
	}
	snapA, traceA := chaosRun(t, 42)
	// A label whose value set keeps growing (request IDs, timestamps, raw
	// durations) would blow up any real TSDB; unbounded data belongs in
	// span attrs.
	for series, n := range snapA.LabelCardinality() {
		if n >= obs.MaxLabelCardinality {
			t.Errorf("label %s has %d distinct values (limit %d)", series, n, obs.MaxLabelCardinality)
		}
	}
	a := snapA.Counters
	for _, key := range []string{
		"faults_injected_total",
		"retry_attempts_total",
		"hybrid_fallbacks_total",
		`faults_injected_total{kind="heartbeat_gap"}`,
		`faults_injected_total{kind="preemption"}`,
		"edge_heartbeats_total",
		"edge_sweep_evictions_total",
	} {
		if a[key] <= 0 {
			t.Errorf("%s = %g, want > 0", key, a[key])
		}
	}
	snapB, traceB := chaosRun(t, 42)
	b := snapB.Counters
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed chaos runs diverged:\n run 1: %v\n run 2: %v", a, b)
	}
	if len(traceA) == 0 || !bytes.Equal(traceA, traceB) {
		t.Errorf("same-seed chaos runs exported different traces (%d vs %d bytes)", len(traceA), len(traceB))
	}

	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var got bytes.Buffer
	fmt.Fprintf(&got, "chaos pipeline counters, seed 42\n")
	for _, k := range keys {
		fmt.Fprintf(&got, "%s %g\n", k, a[k])
	}
	golden := filepath.Join("testdata", "chaos_counters_seed42.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, got.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("chaos counters diverged from %s (regenerate with UPDATE_GOLDEN=1 if intended):\n got:\n%s\n want:\n%s",
			golden, got.Bytes(), want)
	}
}

// EnableFaults swaps one scenario plan in for the pipeline's fault-free
// plan: a nil plan and a second call are rejected and leave the plan in
// place.
func TestEnableFaultsOnce(t *testing.T) {
	m := fastModule(t)
	s, err := m.Enroll("student", "mu")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPipeline(s, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults == nil {
		t.Fatal("new pipeline has no fault plan")
	}
	if err := p.EnableFaults(nil); err == nil {
		t.Error("nil plan accepted")
	}
	plan := faults.NewPlan(1, t0)
	if err := p.EnableFaults(plan); err != nil {
		t.Fatal(err)
	}
	if err := p.EnableFaults(faults.NewPlan(2, t0)); err == nil {
		t.Error("second plan accepted")
	}
	if p.Faults != plan {
		t.Error("a rejected call replaced the pipeline's plan")
	}
}
