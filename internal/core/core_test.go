package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/notebook"
	"repro/internal/pilot"
	"repro/internal/sim"
	"repro/internal/testbed"
)

var t0 = time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)

// fastConfig shrinks the camera so integration tests train in seconds.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Camera.Width, cfg.Camera.Height = 24, 16
	return cfg
}

func fastModule(t testing.TB) *Module {
	t.Helper()
	m, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Pathway = "vacation"
	if _, err := New(bad); err == nil {
		t.Error("bad pathway accepted")
	}
	bad = DefaultConfig()
	bad.Track = "nurburgring"
	if _, err := New(bad); err == nil {
		t.Error("unknown track accepted")
	}
	bad = DefaultConfig()
	bad.ProjectID = ""
	if _, err := New(bad); err == nil {
		t.Error("empty project accepted")
	}
}

func TestEnrollAndLogin(t *testing.T) {
	m := fastModule(t)
	s, err := m.Enroll("ace6qv", "University of Missouri")
	if err != nil {
		t.Fatal(err)
	}
	if s.User().Name != "ace6qv" {
		t.Errorf("session user %q", s.User().Name)
	}
}

func TestPublishAndCollectSampleDataset(t *testing.T) {
	m := fastModule(t)
	size, err := m.PublishSampleDataset("oval-sample", 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatal("empty dataset published")
	}
	s, err := m.Enroll("student", "mu")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPipeline(s, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.CollectData(SampleDatasets, "oval-sample", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 120 {
		t.Errorf("downloaded %d records, want 120", res.Records)
	}
	if res.Transfer <= 0 {
		t.Error("no transfer time accounted")
	}
}

func TestCollectSimulatorProducesBadData(t *testing.T) {
	m := fastModule(t)
	s, _ := m.Enroll("student", "mu")
	p, err := m.NewPipeline(s, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.CollectData(Simulator, "drive-1", 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 400 {
		t.Errorf("records %d", res.Records)
	}
	marked, remaining, err := p.CleanData(res.TubDir)
	if err != nil {
		t.Fatal(err)
	}
	if marked+remaining != 400 {
		t.Errorf("clean accounting: %d + %d != 400", marked, remaining)
	}
}

func TestCollectValidation(t *testing.T) {
	m := fastModule(t)
	s, _ := m.Enroll("student", "mu")
	p, _ := m.NewPipeline(s, t.TempDir())
	if _, err := p.CollectData(Simulator, "", 100); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := p.CollectData(Simulator, "x", 0); err == nil {
		t.Error("zero ticks accepted")
	}
	if _, err := p.CollectData("teleport", "x", 100); err == nil {
		t.Error("unknown path accepted")
	}
	if _, err := p.CollectData(SampleDatasets, "missing", 0); err == nil {
		t.Error("missing dataset accepted")
	}
}

func TestPipelineRequiresStudentAndDir(t *testing.T) {
	m := fastModule(t)
	if _, err := m.NewPipeline(nil, t.TempDir()); err == nil {
		t.Error("nil student accepted")
	}
	s, _ := m.Enroll("x", "y")
	if _, err := m.NewPipeline(s, ""); err == nil {
		t.Error("empty workdir accepted")
	}
}

// TestFullPipeline is the Fig. 1 integration test: collect on the
// simulator, clean, train on a V100, evaluate at the edge.
func TestFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	m := fastModule(t)
	s, err := m.Enroll("student", "mu")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPipeline(s, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col, err := p.CollectData(Simulator, "drive-1", 800)
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
	if tr.SimGPUTime <= 0 || tr.Transfer <= 0 || tr.Provision <= 0 {
		t.Errorf("missing phase times: %+v", tr)
	}
	if tr.ModelObject == "" || tr.ModelBytes <= 0 {
		t.Error("checkpoint not published")
	}
	if len(tr.History.Epochs) == 0 {
		t.Fatal("no training happened")
	}
	ev, err := p.Evaluate(tr.ModelObject, EdgePlacement, DefaultPlacementModel(m.Net), 400)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Report.Records == 0 {
		t.Error("evaluation produced no records")
	}
	if ev.Latency <= 0 {
		t.Error("no control latency computed")
	}
}

func TestTrainReservationConflictSurfaces(t *testing.T) {
	m := fastModule(t)
	s, _ := m.Enroll("student", "mu")
	p, _ := m.NewPipeline(s, t.TempDir())
	col, err := p.CollectData(Simulator, "d", 80)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust the 2 MI100 nodes.
	for i := 0; i < 2; i++ {
		if _, err := s.Reserve(testbed.NodeFilter{GPU: testbed.MI100}, t0, t0.Add(5*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Train(col.TubDir, pilot.Linear, testbed.MI100, defaultPipelineTrainConfig(), t0); err == nil {
		t.Error("training on fully booked SKU should fail")
	}
}

func TestControlLatencyShapes(t *testing.T) {
	net := netem.NewNet(1)
	pm := DefaultPlacementModel(net)
	params := 150_000

	edgeLat, err := pm.ControlLatency(EdgePlacement, params)
	if err != nil {
		t.Fatal(err)
	}
	cloudLat, err := pm.ControlLatency(CloudPlacement, params)
	if err != nil {
		t.Fatal(err)
	}
	hybridLat, err := pm.ControlLatency(HybridPlacement, params)
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid runs a distilled model on-car: strictly cheaper than edge.
	if hybridLat >= edgeLat {
		t.Errorf("hybrid (%v) not cheaper than edge (%v)", hybridLat, edgeLat)
	}
	// On the default campus WAN (20ms), the RTT dominates cloud inference
	// for this small model: edge wins.
	if cloudLat <= edgeLat {
		t.Errorf("cloud (%v) should be slower than edge (%v) on the campus WAN", cloudLat, edgeLat)
	}

	// Crossover: with a huge model on a near-zero-latency link, the cloud's
	// V100 beats the Pi.
	pm2 := pm
	pm2.Link = netem.Loopback
	big := 80_000_000
	edgeBig, err := pm2.ControlLatency(EdgePlacement, big)
	if err != nil {
		t.Fatal(err)
	}
	cloudBig, err := pm2.ControlLatency(CloudPlacement, big)
	if err != nil {
		t.Fatal(err)
	}
	if cloudBig >= edgeBig {
		t.Errorf("cloud (%v) should beat edge (%v) for big models on a fast link", cloudBig, edgeBig)
	}
}

func TestControlLatencyValidation(t *testing.T) {
	pm := DefaultPlacementModel(netem.NewNet(1))
	if _, err := pm.ControlLatency("orbit", 1000); err == nil {
		t.Error("unknown placement accepted")
	}
	if _, err := pm.ControlLatency(EdgePlacement, 0); err == nil {
		t.Error("zero params accepted")
	}
	bad := pm
	bad.Net = nil
	if _, err := bad.ControlLatency(EdgePlacement, 1000); err == nil {
		t.Error("nil net accepted")
	}
	bad = pm
	bad.HybridShrink = 1
	if _, err := bad.ControlLatency(HybridPlacement, 1000); err == nil {
		t.Error("shrink 1 accepted")
	}
}

func TestAchievableHzAndDeadline(t *testing.T) {
	if hz := AchievableHz(50 * time.Millisecond); math.Abs(hz-20) > 1e-9 {
		t.Errorf("50ms -> %g Hz", hz)
	}
	if AchievableHz(0) != 0 {
		t.Error("zero latency should give 0 sentinel")
	}
	if !MeetsDeadline(40*time.Millisecond, 20) {
		t.Error("40ms meets 20Hz")
	}
	if MeetsDeadline(60*time.Millisecond, 20) {
		t.Error("60ms does not meet 20Hz")
	}
	if MeetsDeadline(time.Millisecond, 0) {
		t.Error("zero rate cannot be met")
	}
}

func TestDelayedDriverQueues(t *testing.T) {
	calls := 0
	inner := frameDriverFunc(func(f *sim.Frame, st sim.CarState) (float64, float64) {
		calls++
		return float64(calls), 0.5
	})
	d, err := NewDelayedDriver(inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := sim.NewFrame(4, 4, 1)
	// First two ticks: neutral while the pipe fills.
	for i := 0; i < 2; i++ {
		s, th := d.DriveFrame(frame, sim.CarState{})
		if s != 0 || th != 0 {
			t.Fatalf("tick %d not neutral: (%g,%g)", i, s, th)
		}
	}
	// Third tick delivers the first computed command.
	s, _ := d.DriveFrame(frame, sim.CarState{})
	if s != 1 {
		t.Errorf("delayed command = %g, want 1", s)
	}
	if _, err := NewDelayedDriver(nil, 1); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewDelayedDriver(inner, -1); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestDelayTicksFor(t *testing.T) {
	// Sub-tick latency actuates on schedule.
	if got := DelayTicksFor(40*time.Millisecond, 20); got != 0 {
		t.Errorf("40ms@20Hz = %d ticks, want 0", got)
	}
	if got := DelayTicksFor(50*time.Millisecond, 20); got != 1 {
		t.Errorf("50ms@20Hz = %d ticks, want 1", got)
	}
	if got := DelayTicksFor(140*time.Millisecond, 20); got != 2 {
		t.Errorf("140ms@20Hz = %d ticks, want 2", got)
	}
	if got := DelayTicksFor(0, 20); got != 0 {
		t.Errorf("0 latency = %d ticks", got)
	}
}

// frameDriverFunc adapts a function to sim.FrameDriver for tests.
type frameDriverFunc func(*sim.Frame, sim.CarState) (float64, float64)

func (f frameDriverFunc) DriveFrame(fr *sim.Frame, st sim.CarState) (float64, float64) {
	return f(fr, st)
}
func (f frameDriverFunc) Drive(sim.CarState) (float64, float64) { return 0, 0 }

// defaultPipelineTrainConfig keeps test training runs short while still
// converging on the small encoder.
func defaultPipelineTrainConfig() nn.TrainConfig {
	return nn.TrainConfig{Epochs: 5, BatchSize: 32, ValFrac: 0.15, Seed: 2, ClipGrad: 5, Patience: 3}
}

func TestNotebookPublishesToTrovi(t *testing.T) {
	m := fastModule(t)
	s, err := m.Enroll("student", "mu")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPipeline(s, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	nb := p.BuildNotebook()
	var code []string
	for _, c := range nb.Cells {
		if c.Kind == notebook.Code {
			code = append(code, c.Source)
		}
	}
	if got := strings.Join(code, ","); got != "collect-data,clean-data,reserve-train,evaluate-model" {
		t.Errorf("code cells %s", got)
	}
	art, err := p.PublishToTrovi(nb, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Tags) == 0 || art.Tags[0] != "education" {
		t.Errorf("artifact tags %v", art.Tags)
	}

	// A student launches the artifact and executes a cell; Trovi counts
	// each user once.
	if err := m.Trovi.RecordLaunch(art.ID, "student"); err != nil {
		t.Fatal(err)
	}
	if err := m.Trovi.RecordExecution(art.ID, "student"); err != nil {
		t.Fatal(err)
	}
	metrics, err := m.Trovi.MetricsFor(art.ID)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.ExecUsers != 1 || metrics.LaunchUsers != 1 {
		t.Errorf("metrics %+v", metrics)
	}
}

func TestHybridDriverBlendsDelayedCloud(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	m := fastModule(t)
	car, err := m.NewCar()
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 400, OffTrackMargin: 0.1, ResetOnCrash: true},
		car, m.Camera(), sim.NewPurePursuit(m.Track, car.Cfg))
	if err != nil {
		t.Fatal(err)
	}
	data := ses.Run(t0)
	cfg := m.DefaultPilotConfig(pilot.Linear)
	teacher, err := pilot.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := pilot.SamplesFromRecords(cfg, data.Records)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := teacher.Train(samples, nn.TrainConfig{Epochs: 3, BatchSize: 32, ValFrac: 0, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	dc := pilot.DefaultDistillConfig()
	dc.Shrink = 4
	dc.Train = nn.TrainConfig{Epochs: 3, BatchSize: 32, ValFrac: 0, Seed: 2}
	student, _, err := pilot.Distill(teacher, samples, dc)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := pilot.NewAutoDriver(student)
	if err != nil {
		t.Fatal(err)
	}
	td, err := pilot.NewAutoDriver(teacher)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := NewHybridDriver(sd, td, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	evalCar, err := m.NewCar()
	if err != nil {
		t.Fatal(err)
	}
	evalSes, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 200, OffTrackMargin: 0.15, ResetOnCrash: true},
		evalCar, m.Camera(), hd)
	if err != nil {
		t.Fatal(err)
	}
	res := evalSes.Run(t0)
	if err := hd.Err(); err != nil {
		t.Fatal(err)
	}
	if res.MeanSpeed <= 0.05 {
		t.Errorf("hybrid runtime frozen: speed %g", res.MeanSpeed)
	}
}

func TestHybridDriverValidation(t *testing.T) {
	p, err := pilot.New(pilot.DefaultConfig(pilot.Linear, 24, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := pilot.NewAutoDriver(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHybridDriver(nil, d, 1, 0.5); err == nil {
		t.Error("nil student accepted")
	}
	if _, err := NewHybridDriver(d, d, -1, 0.5); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := NewHybridDriver(d, d, 1, 1.5); err == nil {
		t.Error("blend > 1 accepted")
	}
}

func TestHybridDriverZeroBlendIsPureStudent(t *testing.T) {
	mkDriver := func(v float64) *pilot.AutoDriver {
		p, err := pilot.New(pilot.DefaultConfig(pilot.Linear, 24, 16, 1))
		if err != nil {
			t.Fatal(err)
		}
		d, err := pilot.NewAutoDriver(p)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	s := mkDriver(0)
	c := mkDriver(1)
	h, err := NewHybridDriver(s, c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sim.NewFrame(24, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With blend 0 the hybrid output equals a fresh student's output.
	ref := mkDriver(0)
	for i := 0; i < 5; i++ {
		ha, ht := h.DriveFrame(f, sim.CarState{})
		ra, rt := ref.DriveFrame(f, sim.CarState{})
		if ha != ra || ht != rt {
			t.Fatalf("tick %d: hybrid (%g,%g) vs student (%g,%g)", i, ha, ht, ra, rt)
		}
	}
}

func TestEvaluateHybridEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and distills models")
	}
	m := fastModule(t)
	s, err := m.Enroll("student", "mu")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.NewPipeline(s, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col, err := p.CollectData(Simulator, "d", 600)
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
	dc := pilot.DefaultDistillConfig()
	dc.Shrink = 4
	dc.Train = nn.TrainConfig{Epochs: 3, BatchSize: 32, ValFrac: 0.1, Seed: 3}
	hv, err := p.EvaluateHybrid(tr.ModelObject, DefaultPlacementModel(m.Net), dc, 0.4, 300)
	if err != nil {
		t.Fatal(err)
	}
	if hv.StudentParams >= hv.TeacherParams {
		t.Errorf("student %d not smaller than teacher %d", hv.StudentParams, hv.TeacherParams)
	}
	if hv.Report.Records == 0 {
		t.Error("hybrid evaluation produced no records")
	}
	if hv.Latency <= 0 {
		t.Error("no student latency computed")
	}
}

func TestDigitalPathwayHasNoCar(t *testing.T) {
	cfg := fastConfig()
	cfg.Pathway = Digital
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.Enroll("student", "mu")
	p, _ := m.NewPipeline(s, t.TempDir())
	if _, err := p.CollectData(PhysicalCar, "x", 100); err == nil {
		t.Error("digital pathway drove a physical car")
	}
	// Simulator path still works.
	if _, err := p.CollectData(Simulator, "y", 100); err != nil {
		t.Errorf("simulator path failed: %v", err)
	}
	// The regular pathway does have a car.
	cfg2 := fastConfig()
	cfg2.Pathway = Regular
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := m2.Enroll("student", "mu")
	p2, _ := m2.NewPipeline(s2, t.TempDir())
	if _, err := p2.CollectData(PhysicalCar, "x", 100); err != nil {
		t.Errorf("regular pathway physical car failed: %v", err)
	}
}

func TestPipelineAugmentDoublesTrainingData(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	m := fastModule(t)
	s, _ := m.Enroll("student", "mu")
	p, _ := m.NewPipeline(s, t.TempDir())
	col, err := p.CollectData(Simulator, "d", 200)
	if err != nil {
		t.Fatal(err)
	}
	tc := nn.TrainConfig{Epochs: 1, BatchSize: 32, ValFrac: 0, Seed: 1}
	plain, err := p.Train(col.TubDir, pilot.Linear, testbed.RTX6000, tc, t0)
	if err != nil {
		t.Fatal(err)
	}
	p.Augment = true
	aug, err := p.Train(col.TubDir, pilot.Linear, testbed.RTX6000, tc, t0.Add(5*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if aug.History.SamplesSeen != 2*plain.History.SamplesSeen {
		t.Errorf("augmented saw %d samples, plain %d (want 2x)",
			aug.History.SamplesSeen, plain.History.SamplesSeen)
	}
}
