package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/scenario"
	"repro/internal/testbed"
)

// TestPipelineTraceAndMetrics runs the full Fig. 1 loop on an
// instrumented module and checks the exported trace and metrics: one
// span per stage parented to the pipeline root, plus the headline
// metrics series (training durations, transfer bytes, edge liveness).
func TestPipelineTraceAndMetrics(t *testing.T) {
	m := fastModule(t)
	o := obs.NewObserver()
	m.Instrument(o)
	student, err := m.Enroll("tracer", "uni")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPipeline(student, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	col, err := p.CollectData(Simulator, "d1", 400)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CleanData(col.TubDir); err != nil {
		t.Fatal(err)
	}
	tr, err := p.Train(col.TubDir, pilot.Linear, testbed.V100,
		nn.TrainConfig{Epochs: 3, BatchSize: 32, ValFrac: 0.2, Seed: 1, ClipGrad: 5}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Evaluate(tr.ModelObject, EdgePlacement, DefaultPlacementModel(m.Net), 100); err != nil {
		t.Fatal(err)
	}
	p.EndTrace()

	// Trace: root + 4 stages, children pointing at the root.
	var buf bytes.Buffer
	if err := o.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	type rec struct {
		ID     string         `json:"id"`
		Parent string         `json:"parent"`
		Name   string         `json:"name"`
		DurMS  float64        `json:"dur_ms"`
		Attrs  map[string]any `json:"attrs"`
	}
	byName := map[string]rec{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		byName[r.Name] = r
	}
	root, ok := byName["pipeline"]
	if !ok {
		t.Fatal("no pipeline root span")
	}
	for _, stage := range []string{"collect", "clean", "train", "evaluate"} {
		sp, ok := byName[stage]
		if !ok {
			t.Fatalf("missing %s span; trace has %v", stage, o.Tracer.SpanNames())
		}
		if sp.Parent != root.ID {
			t.Errorf("%s span parent = %q, want root %q", stage, sp.Parent, root.ID)
		}
		if sp.DurMS < 0 {
			t.Errorf("%s span duration %v", stage, sp.DurMS)
		}
	}
	if got := byName["collect"].Attrs["records"].(float64); got != float64(col.Records) {
		t.Errorf("collect records attr = %v, want %d", got, col.Records)
	}
	if got := byName["train"].Attrs["epochs"].(float64); got != 3 {
		t.Errorf("train epochs attr = %v", got)
	}
	if byName["train"].Attrs["sim_gpu_train_s"].(float64) <= 0 {
		t.Error("train span missing simulated GPU time")
	}

	// Metrics: the headline series exist and counted real work.
	snap := o.Metrics.Snapshot()
	if got := snap.HistCounts[`autolearn_train_epoch_seconds{pilot="linear"}`]; got != 3 {
		t.Errorf("epoch histogram count = %v, want 3", got)
	}
	if got := snap.Counters[`netem_transfer_bytes_total{link="campus-wan"}`]; got <= 0 {
		t.Errorf("transfer bytes counter = %v", got)
	}
	if _, ok := snap.Gauges["edge_devices_live"]; !ok {
		t.Error("edge liveness gauge not published")
	}
	if got := snap.Counters[`testbed_leases_total{gpu="V100"}`]; got != 1 {
		t.Errorf("V100 lease counter = %v", got)
	}
	if got := snap.HistCounts[`testbed_training_seconds{gpu="V100"}`]; got != 1 {
		t.Errorf("simulated training histogram = %v", got)
	}
	if got := snap.Counters["autolearn_records_collected_total"]; got != float64(col.Records) {
		t.Errorf("records collected counter = %v, want %d", got, col.Records)
	}

	// The Prometheus exposition contains the acceptance-criteria series.
	var prom bytes.Buffer
	if err := o.Metrics.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE autolearn_train_epoch_seconds histogram",
		"# TYPE netem_transfer_bytes_total counter",
		"# TYPE edge_devices_live gauge",
	} {
		if !bytes.Contains(prom.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestUninstrumentedPipelineUnchanged makes sure the default (zero
// observer) path works and emits nothing.
func TestUninstrumentedPipelineUnchanged(t *testing.T) {
	m := fastModule(t)
	student, err := m.Enroll("plain", "uni")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPipeline(student, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col, err := p.CollectData(Simulator, "d1", 200)
	if err != nil {
		t.Fatal(err)
	}
	if col.Records == 0 {
		t.Fatal("no records collected")
	}
	p.EndTrace() // no-op
	if p.Obs.Tracer != nil || p.root != nil {
		t.Fatal("uninstrumented pipeline grew a tracer")
	}
}

// faultFreeRun drives the Fig. 1 loop (collect, clean, train, evaluate)
// on an instrumented seed-42 module with no scenario, and returns the
// counter snapshot, the exported trace and its span count. The pipeline
// runs on its fault-free plan, so its spans sit on that plan's virtual
// clock.
func faultFreeRun(t *testing.T) (map[string]float64, []byte, int) {
	t.Helper()
	cfg := fastConfig()
	cfg.Seed = 42
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	m.Instrument(o)
	s, err := m.Enroll("student", "mu")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPipeline(s, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col, err := p.CollectData(Simulator, "drive", 400)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.CleanData(col.TubDir); err != nil {
		t.Fatal(err)
	}
	tr, err := p.Train(col.TubDir, pilot.Linear, testbed.V100, defaultPipelineTrainConfig(), t0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Evaluate(tr.ModelObject, EdgePlacement, DefaultPlacementModel(m.Net), 200); err != nil {
		t.Fatal(err)
	}
	p.EndTrace()
	var trace bytes.Buffer
	if err := o.Tracer.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	return o.Metrics.Snapshot().Counters, trace.Bytes(), len(o.Tracer.Finished())
}

// The fault-free pipeline's replay golden: same-seed runs at the
// default, 1 and 3 nn kernel workers export byte-identical traces, and
// the span count, the trace's SHA-256 and the counters match the
// checked-in golden (regenerate with UPDATE_GOLDEN=1). Wall-clock
// histograms stay out of it; they are the only part of a run that may
// vary.
func TestPipelineTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model three times")
	}
	counters, traceA, spans := faultFreeRun(t)
	if len(traceA) == 0 {
		t.Fatal("fault-free pipeline exported an empty trace")
	}
	for _, w := range []int{1, 3} {
		prev := nn.SetMaxWorkers(w)
		_, traceB, _ := faultFreeRun(t)
		nn.SetMaxWorkers(prev)
		if !bytes.Equal(traceA, traceB) {
			t.Fatalf("same-seed fault-free pipelines exported different traces at the default and %d kernel workers (%d vs %d bytes)",
				w, len(traceA), len(traceB))
		}
	}

	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var got bytes.Buffer
	fmt.Fprintf(&got, "fault-free pipeline trace, seed 42\n")
	fmt.Fprintf(&got, "spans %d\n", spans)
	fmt.Fprintf(&got, "trace sha256 %x\n", sha256.Sum256(traceA))
	for _, k := range keys {
		fmt.Fprintf(&got, "%s %g\n", k, counters[k])
	}
	golden := filepath.Join("testdata", "pipeline_trace_seed42.golden")
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
		t.Fatalf("fault-free pipeline diverged from %s (regenerate with UPDATE_GOLDEN=1 if intended):\n got:\n%s\n want:\n%s",
			golden, got.Bytes(), want)
	}
}

// TestStageSecondsIsWallTime pins what autolearn_stage_seconds measures:
// the stage's wall-clock time, even under a scenario runtime whose
// virtual clock the stage spans run on. A 400-tick drive models 20 s,
// which collecting it takes nowhere near.
func TestStageSecondsIsWallTime(t *testing.T) {
	m := fastModule(t)
	o := obs.NewObserver()
	m.Instrument(o)
	rt, err := scenario.NewRuntime(&scenario.Scenario{Name: "empty"}, 1, t0)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(o)
	rt.Attach(m.Net)
	s, err := m.Enroll("student", "mu")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPipeline(s, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableFaults(rt.Plan()); err != nil {
		t.Fatal(err)
	}
	col, err := p.CollectData(Simulator, "drive", 400)
	if err != nil {
		t.Fatal(err)
	}
	got := o.Metrics.Snapshot().HistSums[`autolearn_stage_seconds{stage="collect"}`]
	if got <= 0 || got >= col.Drive.Seconds() {
		t.Fatalf("collect stage_seconds sum = %gs, want wall time in (0, %gs) (the modelled drive time)",
			got, col.Drive.Seconds())
	}
}
