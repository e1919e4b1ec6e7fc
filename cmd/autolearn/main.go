// Command autolearn is the module's command-line interface: it drives the
// same pipeline the notebooks wrap — collect, clean, train, evaluate — plus
// utilities for track inspection, BYOD onboarding, and the inference
// placement sweep.
//
// Usage:
//
//	autolearn tracks
//	autolearn collect   -out DIR [-track default-oval] [-ticks 1200] [-driver human] [-seed 1]
//	autolearn clean     -tub DIR
//	autolearn merge     -out DIR SRC1 [SRC2 ...]
//	autolearn train     -tub DIR -out FILE [-model linear] [-gpu V100] [-epochs 5]
//	autolearn evaluate  -model FILE [-track default-oval] [-placement edge] [-ticks 600] [-trace FILE] [-metrics FILE]
//	autolearn pipeline  [-track default-oval] [-model inferred] [-gpu RTX6000] [-faults PROFILE | -scenario FILE] [-trace FILE] [-metrics FILE]
//	autolearn models    [-track default-oval] [-ticks 1200] [-epochs 8] [-trace FILE] [-metrics FILE]
//	autolearn twin      [-track default-oval] [-ticks 800]
//	autolearn hybrid    [-shrink 8] [-blend 0.4] [-ticks 600]
//	autolearn zero      [-image-mb 800]
//	autolearn placement [-params 150000]
//	autolearn serve     -models name=FILE[,name=FILE...] [-addr :8899] [-max-batch 32] [-batch-window 0] [-scenario FILE]
//	autolearn obs       report -trace FILE
//	autolearn scenario  check -file FILE | probe -file FILE [-at 90s] [-link NAME] [-tol 0.25]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/track"
	"repro/internal/tub"
)

// obsFlags carries the -trace/-metrics export destinations shared by the
// pipeline, models, and evaluate commands.
type obsFlags struct {
	trace   *string
	metrics *string
}

func addObsFlags(fs *flag.FlagSet) obsFlags {
	return obsFlags{
		trace:   fs.String("trace", "", "write a JSONL span trace to this file"),
		metrics: fs.String("metrics", "", "write Prometheus-format metrics to this file"),
	}
}

// observer returns a live observer when either export was requested, and
// the inert zero observer otherwise.
func (of obsFlags) observer() obs.Observer {
	if *of.trace == "" && *of.metrics == "" {
		return obs.Observer{}
	}
	return obs.NewObserver()
}

// write exports the requested trace and metrics files.
func (of obsFlags) write(o obs.Observer) error {
	if err := of.writeTrace(o); err != nil {
		return err
	}
	return of.writeMetrics(o)
}

// writeTrace exports the requested trace file.
func (of obsFlags) writeTrace(o obs.Observer) error {
	return export(*of.trace, o.Tracer.WriteJSONL,
		func() string { return fmt.Sprintf("trace: %d spans -> %s", len(o.Tracer.Finished()), *of.trace) })
}

// writeMetrics exports the requested metrics file.
func (of obsFlags) writeMetrics(o obs.Observer) error {
	return export(*of.metrics, o.Metrics.WriteProm, func() string { return "metrics: " + *of.metrics })
}

// export writes one requested file (none when path is empty) and prints
// what it wrote.
func export(path string, write func(io.Writer) error, done func() string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println(done())
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "tracks":
		err = cmdTracks()
	case "collect":
		err = cmdCollect(os.Args[2:])
	case "clean":
		err = cmdClean(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "evaluate":
		err = cmdEvaluate(os.Args[2:])
	case "pipeline":
		err = cmdPipeline(os.Args[2:])
	case "zero":
		err = cmdZero(os.Args[2:])
	case "placement":
		err = cmdPlacement(os.Args[2:])
	case "models":
		err = cmdModels(os.Args[2:])
	case "twin":
		err = cmdTwin(os.Args[2:])
	case "hybrid":
		err = cmdHybrid(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "fed-train":
		err = cmdFedTrain(os.Args[2:])
	case "obs":
		err = cmdObs(os.Args[2:])
	case "scenario":
		err = cmdScenario(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "autolearn: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "autolearn:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `autolearn <command> [flags]

commands:
  tracks      print the stock track geometries (Fig. 3)
  collect     drive and record a tub dataset
  clean       run tubclean's automatic detector on a tub
  train       train one of the six pilots from a tub
  evaluate    drive a trained model autonomously and report metrics
  pipeline    run the full collect-clean-train-evaluate loop (Fig. 1)
  zero        show the BYOD zero-to-ready timeline
  placement   print the edge/cloud/hybrid latency table
  models      train and race all six pilot architectures
  twin        print the digital-twin divergence table
  hybrid      distill a student and run the hybrid edge-cloud loop
  merge       combine several tubs into one (mix and match)
  serve       run the batched inference service over trained checkpoints
  fed-train   run federated training across a fleet of edge workers:
              -topology star (FedAvg parameter server, default; with
              -quorum/-hierarchical/-regions/-ingress-serial knobs) or
              gossip (decentralized peer-to-peer dissemination; with
              -fanout/-peer-k/-anti-entropy/-peer-link knobs). A knob of
              the other topology is an error
  obs         observability utilities: obs report -trace FILE summarizes
              a JSONL trace (per-stage timings, tree, critical path)
  scenario    scenario-file utilities: scenario check -file F validates and
              canonicalizes; scenario probe -file F [-at 90s] measures the
              declared links as shaped at that instant

pipeline, models, and evaluate accept -trace FILE (JSONL span trace) and
-metrics FILE (Prometheus text format) to export observability data.
pipeline and fed-train accept -faults PROFILE (lossy-wan, flaky-objstore,
heartbeat-gap, preempt, chaos) to run under a fault scenario generated
from the run seed. pipeline, fed-train, and serve accept -scenario FILE
to run under a phase-scripted chaos scenario (see scenarios/); the same
file plus the same seed replays byte-identically through any of them.
Without either flag, pipeline and fed-train run the empty scenario.`)
}

func cmdTracks() error {
	for _, name := range []string{"default-oval", "waveshare"} {
		trk, err := track.ByName(name)
		if err != nil {
			return err
		}
		s := trk.Summarize()
		fmt.Printf("%-14s inner %6.1f in  outer %6.1f in  width %5.2f in  centerline %5.2f m\n",
			s.Name, s.InnerLength/track.MetersPerInch, s.OuterLength/track.MetersPerInch,
			s.AvgWidth/track.MetersPerInch, s.CenterLen)
	}
	return nil
}

func sessionOn(trackName string, camCfg sim.CameraConfig, drv func(*track.Track, *sim.Car) sim.Driver,
	ticks int) (sim.SessionResult, *track.Track, error) {
	trk, err := track.ByName(trackName)
	if err != nil {
		return sim.SessionResult{}, nil, err
	}
	cam, err := sim.NewCamera(camCfg, trk)
	if err != nil {
		return sim.SessionResult{}, nil, err
	}
	car, err := sim.NewCar(sim.DefaultCarConfig())
	if err != nil {
		return sim.SessionResult{}, nil, err
	}
	cfg := sim.DefaultSessionConfig()
	cfg.MaxTicks = ticks
	ses, err := sim.NewSession(cfg, car, cam, drv(trk, car))
	if err != nil {
		return sim.SessionResult{}, nil, err
	}
	return ses.Run(faults.Epoch), trk, nil
}

func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	out := fs.String("out", "", "tub output directory (required)")
	trackName := fs.String("track", "default-oval", "track name")
	ticks := fs.Int("ticks", 1200, "ticks to drive at 20 Hz")
	driver := fs.String("driver", "human", "driver: human|expert")
	seed := fs.Int64("seed", 1, "human-driver seed")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("collect: -out is required")
	}
	res, _, err := sessionOn(*trackName, sim.SmallCameraConfig(), func(trk *track.Track, car *sim.Car) sim.Driver {
		pp := sim.NewPurePursuit(trk, car.Cfg)
		if *driver == "expert" {
			return pp
		}
		return sim.NewHumanDriver(pp, *seed, 20)
	}, *ticks)
	if err != nil {
		return err
	}
	t, err := tub.Create(*out)
	if err != nil {
		return err
	}
	w, err := tub.NewWriter(t)
	if err != nil {
		return err
	}
	bad, err := w.WriteSession(res)
	if err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	size, err := t.SizeBytes()
	if err != nil {
		return err
	}
	fmt.Printf("collected %d records (%d look bad) over %d laps, %d crashes; %d bytes in %s\n",
		len(res.Records), len(bad), res.Laps, res.Crashes, size, *out)
	return nil
}

func cmdClean(args []string) error {
	fs := flag.NewFlagSet("clean", flag.ExitOnError)
	dir := fs.String("tub", "", "tub directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("clean: -tub is required")
	}
	t, err := tub.Open(*dir)
	if err != nil {
		return err
	}
	segs, err := t.DetectBadSegments(tub.DefaultCleanerConfig())
	if err != nil {
		return err
	}
	marked, err := t.CleanSegments(segs...)
	if err != nil {
		return err
	}
	live, err := t.Count()
	if err != nil {
		return err
	}
	fmt.Printf("tubclean: %d segments, %d records marked, %d remain\n", len(segs), marked, live)
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	dir := fs.String("tub", "", "tub directory (required)")
	out := fs.String("out", "", "checkpoint output file (required)")
	model := fs.String("model", "linear", "pilot kind: linear|categorical|inferred|memory|rnn|3d")
	gpu := fs.String("gpu", "V100", "GPU SKU for the simulated wall-time estimate")
	epochs := fs.Int("epochs", 5, "training epochs")
	fs.Parse(args)
	if *dir == "" || *out == "" {
		return fmt.Errorf("train: -tub and -out are required")
	}
	t, err := tub.Open(*dir)
	if err != nil {
		return err
	}
	camCfg := sim.SmallCameraConfig()
	cfg := pilot.DefaultConfig(pilot.Kind(*model), camCfg.Width, camCfg.Height, camCfg.Channels)
	pl, err := pilot.New(cfg)
	if err != nil {
		return err
	}
	samples, err := pilot.SamplesFromTub(cfg, t)
	if err != nil {
		return err
	}
	tc := nn.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.Logf = func(format string, a ...any) { fmt.Printf("  "+format+"\n", a...) }
	hist, err := pl.Train(samples, tc)
	if err != nil {
		return err
	}
	inst := &testbed.Instance{GPU: testbed.GPUType(*gpu), GPUCount: 1}
	simTime, err := inst.TrainingTime(testbed.TrainingJob{
		Samples: len(samples), ParamCount: pl.ParamCount(), Epochs: len(hist.Epochs), BatchSize: tc.BatchSize,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pl.Save(f); err != nil {
		return err
	}
	fmt.Printf("trained %s (%d params) on %d samples: val loss %.4f; simulated %s time %v; saved %s\n",
		*model, pl.ParamCount(), len(samples), hist.BestValLoss, *gpu, simTime.Round(time.Second), *out)
	return nil
}

func cmdEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	modelFile := fs.String("model", "", "checkpoint file (required)")
	trackName := fs.String("track", "default-oval", "track name")
	placement := fs.String("placement", "edge", "inference placement: edge|cloud|hybrid")
	ticks := fs.Int("ticks", 600, "evaluation ticks at 20 Hz")
	quant := fs.String("quant", "", "quantized inference mode: int8 (empty = float64)")
	of := addObsFlags(fs)
	fs.Parse(args)
	if *modelFile == "" {
		return fmt.Errorf("evaluate: -model is required")
	}
	o := of.observer()
	root := o.Tracer.Start("evaluate")
	root.SetAttr("model", *modelFile)
	root.SetAttr("placement", *placement)
	f, err := os.Open(*modelFile)
	if err != nil {
		return err
	}
	pl, err := pilot.Load(f)
	f.Close()
	if err != nil {
		return err
	}
	if *quant != "" {
		if err := pl.EnableQuant(*quant); err != nil {
			return err
		}
		root.SetAttr("quant", *quant)
	}
	net := netem.NewNet(1)
	net.Instrument(o.Metrics)
	pm := core.DefaultPlacementModel(net)
	lat, err := pm.ControlLatency(core.Placement(*placement), pl.ParamCount())
	if err != nil {
		return err
	}
	drv, err := pilot.NewAutoDriver(pl)
	if err != nil {
		return err
	}
	delayed, err := core.NewDelayedDriver(drv, core.DelayTicksFor(lat, 20))
	if err != nil {
		return err
	}
	camCfg := sim.CameraConfig{Width: pl.Cfg.Width, Height: pl.Cfg.Height, Channels: pl.Cfg.Channels,
		HeightAboveGround: 0.12, Pitch: sim.DefaultCameraConfig().Pitch, HFOV: sim.DefaultCameraConfig().HFOV}
	drive := root.Child("drive")
	res, trk, err := sessionOn(*trackName, camCfg, func(*track.Track, *sim.Car) sim.Driver { return delayed }, *ticks)
	if err != nil {
		return err
	}
	if err := drv.Err(); err != nil {
		return err
	}
	drive.SetAttr("ticks", *ticks)
	drive.SetSimDuration("drive", res.Duration)
	drive.End()
	rep, err := eval.Evaluate(res, trk, 20)
	if err != nil {
		return err
	}
	root.SetAttr("laps", rep.Laps)
	root.SetAttr("crashes", rep.Crashes)
	root.SetAttr("mean_speed", rep.MeanSpeed)
	root.SetSimDuration("latency", lat)
	root.End()
	fmt.Printf("placement %s: latency %v (%.1f Hz achievable)\n",
		*placement, lat.Round(time.Microsecond), core.AchievableHz(lat))
	fmt.Printf("laps %d  crashes %d  mean speed %.2f m/s  RMS lateral %.3f m  consistency %.3f\n",
		rep.Laps, rep.Crashes, rep.MeanSpeed, rep.RMSLateral, rep.SpeedConsistency)
	if *quant != "" {
		drift, err := quantDriftOnSession(pl, res)
		if err != nil {
			return err
		}
		verdict := "within"
		if !eval.WithinQuantBudget(drift) {
			verdict = "EXCEEDS"
		}
		fmt.Printf("quant %s: max control drift %.4f vs float64 (%s the %.2f budget)\n",
			*quant, drift, verdict, eval.QuantBudget)
	}
	return of.write(o)
}

// quantDriftOnSession replays frames the quantized pilot just drove on
// through both precisions and reports the worst control-output drift, so
// an `evaluate -quant` run states its accuracy loss on real inputs rather
// than a synthetic probe.
func quantDriftOnSession(pl *pilot.Pilot, res sim.SessionResult) (float64, error) {
	probe, err := pilot.SamplesFromRecords(pl.Cfg, res.Records)
	if err != nil {
		return 0, fmt.Errorf("evaluate: drift probe: %w", err)
	}
	if len(probe) > 32 {
		probe = probe[:32]
	}
	qout, err := pl.InferBatch(probe)
	if err != nil {
		return 0, err
	}
	mode := pl.QuantMode()
	if err := pl.EnableQuant(""); err != nil {
		return 0, err
	}
	fout, err := pl.InferBatch(probe)
	if err != nil {
		return 0, err
	}
	if err := pl.EnableQuant(mode); err != nil {
		return 0, err
	}
	return eval.QuantDrift(fout, qout)
}

// phase prints a phase banner unless ctx is done, in which case it
// returns ctx's error so the command stops at the phase boundary and its
// deferred clean-up runs.
func phase(ctx context.Context, format string, args ...any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Printf(format+"\n", args...)
	return nil
}

// interruptible runs a command under a context that SIGINT or SIGTERM
// cancels, for commands that check it between phases.
func interruptible(run func(context.Context, []string) error, args []string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return run(ctx, args)
}

func cmdPipeline(args []string) error { return interruptible(runPipeline, args) }

// runPipeline is the pipeline command. It stops at the next phase
// boundary once ctx is done and returns ctx's error, having removed its
// work directory.
func runPipeline(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ExitOnError)
	trackName := fs.String("track", "default-oval", "track name")
	model := fs.String("model", "inferred", "pilot kind")
	gpu := fs.String("gpu", "RTX6000", "GPU SKU")
	profile := fs.String("faults", "", "fault profile, run as a generated scenario: "+strings.Join(scenario.Profiles(), "|")+" (empty = fault-free)")
	scnFile := fs.String("scenario", "", "scenario file scripting faults and link shapes (exclusive with -faults)")
	of := addObsFlags(fs)
	fs.Parse(args)

	// Reject flag mistakes before the drive is collected.
	if !slices.Contains(pilot.AllKinds(), pilot.Kind(*model)) {
		return fmt.Errorf("pipeline: unknown -model %q (have %v)", *model, pilot.AllKinds())
	}
	if _, err := testbed.ThroughputFactor(testbed.GPUType(*gpu)); err != nil {
		return fmt.Errorf("pipeline: -gpu: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.Track = *trackName
	rt, err := faultRuntime("pipeline", *profile, *scnFile, cfg.Seed)
	if err != nil {
		return err
	}
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	o := of.observer()
	m.Instrument(o)
	rt.Start(o)
	rt.Attach(m.Net)
	fmt.Printf("== %s\n", rt.Describe())
	student, err := m.Enroll("cli-student", "local")
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp("", "autolearn-pipeline-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	p, err := m.NewPipeline(student, work)
	if err != nil {
		return err
	}
	if err := p.EnableFaults(rt.Plan()); err != nil {
		return err
	}
	if err := phase(ctx, "== phase 1: data collection (simulator path)"); err != nil {
		return err
	}
	col, err := p.CollectData(core.Simulator, "drive-1", 1000)
	if err != nil {
		return err
	}
	fmt.Printf("   %d records, %d flagged, %d laps, drive time %v\n", col.Records, col.Bad, col.Laps, col.Drive)
	if err := phase(ctx, "== phase 2: tubclean"); err != nil {
		return err
	}
	marked, remaining, err := p.CleanData(col.TubDir)
	if err != nil {
		return err
	}
	fmt.Printf("   %d marked, %d remain\n", marked, remaining)
	if err := phase(ctx, "== phase 3: training %s on %s", *model, *gpu); err != nil {
		return err
	}
	tr, err := p.Train(col.TubDir, pilot.Kind(*model), testbed.GPUType(*gpu),
		nn.TrainConfig{Epochs: 5, BatchSize: 32, ValFrac: 0.15, Seed: 2, ClipGrad: 5}, rt.Clock().Now())
	if err != nil {
		return err
	}
	fmt.Printf("   node %s, provision %v, rsync %v, simulated GPU time %v, val loss %.4f\n",
		tr.Lease.NodeID, tr.Provision, tr.Transfer.Round(time.Millisecond),
		tr.SimGPUTime.Round(time.Second), tr.History.BestValLoss)
	if err := phase(ctx, "== phase 4: evaluation (edge placement)"); err != nil {
		return err
	}
	ev, err := p.Evaluate(tr.ModelObject, core.EdgePlacement, core.DefaultPlacementModel(m.Net), 600)
	if err != nil {
		return err
	}
	fmt.Printf("   latency %v, laps %d, crashes %d, mean speed %.2f m/s\n",
		ev.Latency.Round(time.Microsecond), ev.Report.Laps, ev.Report.Crashes, ev.Report.MeanSpeed)
	if *profile != "" || *scnFile != "" {
		// Under faults, also exercise the hybrid edge-cloud path: this is
		// where cloud deadline misses fall back to the on-device pilot.
		if err := phase(ctx, "== phase 5: hybrid inference under faults"); err != nil {
			return err
		}
		hy, err := p.EvaluateHybrid(tr.ModelObject, core.DefaultPlacementModel(m.Net),
			pilot.DefaultDistillConfig(), 0.4, 600)
		if err != nil {
			return err
		}
		fmt.Printf("   student %d params, laps %d, crashes %d, cloud fallbacks %d\n",
			hy.StudentParams, hy.Report.Laps, hy.Report.Crashes, hy.Fallbacks)
	}
	p.EndTrace()
	return finishRun(rt, o, of)
}

func cmdZero(args []string) error {
	fs := flag.NewFlagSet("zero", flag.ExitOnError)
	imageMB := fs.Int64("image-mb", 800, "AutoLearn Docker image size, MB")
	fs.Parse(args)
	m, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	res, err := m.Edge.ZeroToReady("donkeycar-1", "cli-student", m.Cfg.ProjectID,
		"autolearn:latest", *imageMB<<20, faults.Epoch)
	if err != nil {
		return err
	}
	fmt.Println("zero-to-ready timeline:")
	for _, s := range res.Steps {
		fmt.Printf("  %-16s %v\n", s.Name, s.Duration.Round(time.Second))
	}
	fmt.Printf("  %-16s %v\n", "TOTAL", res.Total.Round(time.Second))
	fmt.Printf("jupyter: ssh tunnel port %d, token %s\n", res.Jupyter.TunnelPort, res.Jupyter.Token)
	return nil
}

func cmdPlacement(args []string) error {
	fs := flag.NewFlagSet("placement", flag.ExitOnError)
	params := fs.Int("params", 150_000, "model parameter count")
	fs.Parse(args)
	net := netem.NewNet(1)
	fmt.Printf("%-12s %-10s %-14s %-12s %s\n", "wan-latency", "placement", "loop-latency", "achievable", "meets 20Hz")
	for _, wan := range []time.Duration{5, 20, 50, 100, 200} {
		lat := wan * time.Millisecond
		pm := core.DefaultPlacementModel(net)
		pm.Link = pm.Link.WithLatency(lat)
		for _, pl := range core.AllPlacements() {
			d, err := pm.ControlLatency(pl, *params)
			if err != nil {
				return err
			}
			fmt.Printf("%-12v %-10s %-14v %-12.1f %v\n",
				lat, pl, d.Round(time.Microsecond), core.AchievableHz(d), core.MeetsDeadline(d, 20))
		}
	}
	return nil
}
