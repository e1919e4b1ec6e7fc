package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/tub"
)

// Pipeline runs a student through the Fig. 1 loop: data collection, data
// cleaning, model training on testbed hardware, and model evaluation.
type Pipeline struct {
	M       *Module
	Student *testbed.Session
	WorkDir string // local scratch space for tubs

	// WANLink is the path between the student/car and the datacenter.
	WANLink netem.Link
	// Augment doubles training data with the horizontal-flip augmentation
	// before every Train call (standard DonkeyCar practice).
	Augment bool

	// Obs receives one span per pipeline stage plus stage metrics; the
	// zero value disables instrumentation. Inherited from the module when
	// it was instrumented before NewPipeline.
	Obs obs.Observer

	// Faults is the run's fault plan and virtual clock: every stage bills
	// its modelled time to the clock, and WAN and object-store operations
	// run under the plan's retry policy (see faultrun.go). NewPipeline
	// starts on the fault-free plan; EnableFaults swaps in a scenario's.
	Faults *faults.Plan

	root     *obs.Span // the "pipeline" span, parent of every stage span
	scripted bool      // EnableFaults has swapped in a scenario's plan
}

// NewPipeline creates a pipeline for an enrolled student, on the
// fault-free plan starting at faults.Epoch. The pipeline's spans run on
// that plan's virtual clock.
func (m *Module) NewPipeline(student *testbed.Session, workDir string) (*Pipeline, error) {
	if student == nil {
		return nil, fmt.Errorf("core: pipeline needs an enrolled student")
	}
	if workDir == "" {
		return nil, fmt.Errorf("core: pipeline needs a work directory")
	}
	plan := faults.NewPlan(m.Cfg.Seed, faults.Epoch)
	m.Obs.Tracer.SetClock(plan.Clock.Now)
	return &Pipeline{M: m, Student: student, WorkDir: workDir, WANLink: netem.CampusWAN, Obs: m.Obs, Faults: plan}, nil
}

// CollectResult summarizes the data-collection phase.
type CollectResult struct {
	Path     CollectionPath
	TubDir   string
	Records  int
	Bad      int
	Laps     int
	Crashes  int
	Drive    time.Duration // simulated driving time
	Transfer time.Duration // download time for sample datasets
}

// PublishSampleDataset generates a sample dataset the way the authors did
// (expert drive around the track), packs it, and stores it in the object
// store under the given name. Returns the stored size.
func (m *Module) PublishSampleDataset(name string, ticks int, seed int64) (int64, error) {
	if name == "" || ticks <= 0 {
		return 0, fmt.Errorf("core: dataset name and positive ticks required")
	}
	dir, err := tempTubDir()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	_, t, err := m.driveAndStore(dir, ticks, seed, false)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := t.Pack(&buf); err != nil {
		return 0, err
	}
	if _, err := m.Store.Put(ContainerDatasets, name, buf.Bytes(),
		map[string]string{"track": m.Track.Name}); err != nil {
		return 0, err
	}
	return int64(buf.Len()), nil
}

// driveAndStore runs a drive session and persists it into a new tub at dir.
// noisy selects the human driver (with mistakes) over the clean expert.
func (m *Module) driveAndStore(dir string, ticks int, seed int64, noisy bool) (sim.SessionResult, *tub.Tub, error) {
	car, err := m.NewCar()
	if err != nil {
		return sim.SessionResult{}, nil, err
	}
	var drv sim.Driver = sim.NewPurePursuit(m.Track, car.Cfg)
	cfg := sim.DefaultSessionConfig()
	cfg.MaxTicks = ticks
	if noisy {
		drv = sim.NewHumanDriver(drv.(*sim.PurePursuit), seed, cfg.Hz)
	}
	ses, err := sim.NewSession(cfg, car, m.camera, drv)
	if err != nil {
		return sim.SessionResult{}, nil, err
	}
	res := ses.Run(time.Unix(1_700_000_000, 0).Add(time.Duration(seed) * time.Hour))
	t, err := tub.Create(dir)
	if err != nil {
		return sim.SessionResult{}, nil, err
	}
	w, err := tub.NewWriter(t)
	if err != nil {
		return sim.SessionResult{}, nil, err
	}
	if _, err := w.WriteSession(res); err != nil {
		return sim.SessionResult{}, nil, err
	}
	if err := w.Close(); err != nil {
		return sim.SessionResult{}, nil, err
	}
	return res, t, nil
}

func (p *Pipeline) collectData(path CollectionPath, name string, ticks int) (CollectResult, error) {
	if name == "" {
		return CollectResult{}, fmt.Errorf("core: collection name required")
	}
	dir := filepath.Join(p.WorkDir, name)
	out := CollectResult{Path: path, TubDir: dir}
	switch path {
	case SampleDatasets:
		data, err := p.storeGet(ContainerDatasets, name)
		if err != nil {
			return out, fmt.Errorf("core: sample dataset: %w", err)
		}
		tr, err := p.wanTransfer(int64(len(data)))
		if err != nil {
			return out, err
		}
		out.Transfer = tr.Duration
		t, err := tub.Unpack(bytes.NewReader(data), dir)
		if err != nil {
			return out, err
		}
		n, err := t.Count()
		if err != nil {
			return out, err
		}
		out.Records = n
		return out, nil

	case Simulator, PhysicalCar:
		if path == PhysicalCar && p.M.Cfg.Pathway == Digital {
			// §3.4: the digital pathway "does not require a car" — it has
			// none to drive.
			return out, fmt.Errorf("core: the digital pathway has no physical car; use the simulator or sample datasets")
		}
		if ticks <= 0 {
			return out, fmt.Errorf("core: positive ticks required for driving")
		}
		// Both paths drive the same plant here; the physical car produces
		// noisier human data (the student holds a real controller) while the
		// simulator path matches the paper's "all other functionality ... is
		// the same".
		res, t, err := p.M.driveAndStore(dir, ticks, p.M.Cfg.Seed, true)
		if err != nil {
			return out, err
		}
		n, err := t.Count()
		if err != nil {
			return out, err
		}
		out.Records = n
		out.Bad = res.BadCount
		out.Laps = res.Laps
		out.Crashes = res.Crashes
		out.Drive = res.Duration
		p.Faults.Clock.Advance(out.Drive)
		return out, nil
	default:
		return out, fmt.Errorf("core: unknown collection path %q", path)
	}
}

func (p *Pipeline) cleanData(tubDir string) (marked, remaining int, err error) {
	t, err := tub.Open(tubDir)
	if err != nil {
		return 0, 0, err
	}
	marked, err = t.AutoClean(tub.DefaultCleanerConfig())
	if err != nil {
		return 0, 0, err
	}
	remaining, err = t.Count()
	return marked, remaining, err
}

// TrainResult summarizes the cloud-training phase.
type TrainResult struct {
	Lease       *testbed.Lease
	Instance    *testbed.Instance
	GPU         testbed.GPUType
	Provision   time.Duration // bare-metal appliance deployment
	Transfer    time.Duration // rsync of the tub to the node
	SimGPUTime  time.Duration // simulated training wall time on that GPU
	History     nn.History    // the actual (Go) training run
	Pilot       *pilot.Pilot
	ModelObject string // checkpoint name in the object store
	ModelBytes  int64
}

func (p *Pipeline) train(tubDir string, kind pilot.Kind, gpu testbed.GPUType,
	trainCfg nn.TrainConfig, start time.Time) (TrainResult, error) {
	out := TrainResult{GPU: gpu}

	// Reserve and deploy.
	lease, err := p.Student.Reserve(testbed.NodeFilter{GPU: gpu}, start, start.Add(4*time.Hour))
	if err != nil {
		return out, fmt.Errorf("core: reserve: %w", err)
	}
	out.Lease = lease
	inst, err := p.Student.Deploy(lease.ID, "CC-Ubuntu20.04-CUDA", start)
	if err != nil {
		return out, fmt.Errorf("core: deploy: %w", err)
	}
	out.Instance = inst
	out.Provision = inst.ReadyAt.Sub(start)
	p.Faults.Clock.Advance(out.Provision)

	// rsync the tub up.
	t, err := tub.Open(tubDir)
	if err != nil {
		return out, err
	}
	size, err := t.SizeBytes()
	if err != nil {
		return out, err
	}
	tr, err := p.wanTransfer(size)
	if err != nil {
		return out, err
	}
	out.Transfer = tr.Duration

	// Train the actual Go model.
	pcfg := p.M.DefaultPilotConfig(kind)
	pl, err := pilot.New(pcfg)
	if err != nil {
		return out, err
	}
	samples, err := pilot.SamplesFromTub(pcfg, t)
	if err != nil {
		return out, err
	}
	if p.Augment {
		samples = pilot.AugmentFlip(samples)
	}
	// Mirrors runTraining's condition for taking the preemption path, which
	// bills its GPU time piecewise as it goes.
	preemptible := p.Faults.PreemptAfterFrac > 0 && trainCfg.Epochs >= 2
	hist, trained, err := p.runTraining(pl, samples, trainCfg, &out, start)
	if err != nil {
		return out, err
	}
	out.History = hist
	out.Pilot = trained

	// Simulated GPU wall time for this job on the chosen SKU (the node that
	// finished the run; under a preemption that is the replacement node).
	epochs := len(hist.Epochs)
	if epochs == 0 {
		epochs = trainCfg.Epochs
	}
	job := testbed.TrainingJob{
		Samples:    len(samples),
		ParamCount: trained.ParamCount(),
		Epochs:     epochs,
		BatchSize:  trainCfg.BatchSize,
	}
	simTime, err := out.Instance.TrainingTime(job)
	if err != nil {
		return out, err
	}
	out.SimGPUTime = simTime
	if !preemptible {
		// The preemption path already billed its GPU time piecewise.
		p.Faults.Clock.Advance(simTime)
	}

	// Publish the checkpoint.
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		return out, err
	}
	out.ModelObject = fmt.Sprintf("%s-%s.ckpt", kind, p.Student.User().Name)
	out.ModelBytes = int64(buf.Len())
	if err := p.storePut(ContainerModels, out.ModelObject, buf.Bytes(),
		map[string]string{"kind": string(kind), "gpu": string(gpu)}); err != nil {
		return out, err
	}
	return out, nil
}

// EvalResult summarizes the model-evaluation phase.
type EvalResult struct {
	Placement  Placement
	Latency    time.Duration
	DelayTicks int
	Download   time.Duration // model download onto the car
	Report     eval.Report
}

func (p *Pipeline) evaluate(modelObject string, placement Placement, pm PlacementModel, ticks int) (EvalResult, error) {
	out := EvalResult{Placement: placement}
	data, err := p.storeGet(ContainerModels, modelObject)
	if err != nil {
		return out, fmt.Errorf("core: model download: %w", err)
	}
	tr, err := p.wanTransfer(int64(len(data)))
	if err != nil {
		return out, err
	}
	out.Download = tr.Duration

	pl, err := pilot.Load(bytes.NewReader(data))
	if err != nil {
		return out, err
	}
	lat, err := p.controlLatency(pm, placement, pl.ParamCount())
	if err != nil {
		return out, err
	}
	out.Latency = lat

	drv, err := pilot.NewAutoDriver(pl)
	if err != nil {
		return out, err
	}
	hz := 20.0
	out.DelayTicks = DelayTicksFor(lat, hz)
	delayed, err := NewDelayedDriver(drv, out.DelayTicks)
	if err != nil {
		return out, err
	}
	car, err := p.M.NewCar()
	if err != nil {
		return out, err
	}
	ses, err := sim.NewSession(sim.SessionConfig{
		Hz: hz, MaxTicks: ticks, OffTrackMargin: 0.15, ResetOnCrash: true,
	}, car, p.M.camera, delayed)
	if err != nil {
		return out, err
	}
	res := ses.Run(time.Unix(1_700_001_000, 0))
	if err := drv.Err(); err != nil {
		return out, err
	}
	rep, err := eval.Evaluate(res, p.M.Track, hz)
	if err != nil {
		return out, err
	}
	out.Report = rep
	return out, nil
}
