package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/sim"
	"repro/internal/track"
	"repro/internal/tub"
	"repro/internal/twin"
)

// cmdModels runs the §3.3 six-model comparison: train each architecture on
// the same expert dataset, evaluate autonomously, print the table.
func cmdModels(args []string) error {
	fs := flag.NewFlagSet("models", flag.ExitOnError)
	trackName := fs.String("track", "default-oval", "track name")
	ticks := fs.Int("ticks", 1200, "expert data-collection ticks")
	epochs := fs.Int("epochs", 8, "training epochs per model")
	evalTicks := fs.Int("eval-ticks", 800, "autonomous evaluation ticks")
	of := addObsFlags(fs)
	fs.Parse(args)

	cfg := core.DefaultConfig()
	cfg.Track = *trackName
	cfg.Camera.Width, cfg.Camera.Height = 32, 24
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	o := of.observer()
	m.Instrument(o)
	root := o.Tracer.Start("models")
	car, err := m.NewCar()
	if err != nil {
		return err
	}
	ses, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: *ticks, OffTrackMargin: 0.1, ResetOnCrash: true},
		car, m.Camera(), sim.NewPurePursuit(m.Track, car.Cfg))
	if err != nil {
		return err
	}
	fmt.Printf("collecting %d expert records on %s ...\n", *ticks, m.Track.Name)
	collect := root.Child("collect")
	data := ses.Run(faults.Epoch)
	collect.SetAttr("records", len(data.Records))
	collect.SetSimDuration("drive", data.Duration)
	collect.End()

	fmt.Printf("%-12s %-9s %-9s %-6s %-8s %-8s %s\n",
		"model", "params", "valLoss", "laps", "crashes", "speed", "frontier")
	var rows []eval.Comparison
	for _, kind := range pilot.AllKinds() {
		sp := root.Child(string(kind))
		pcfg := m.DefaultPilotConfig(kind)
		pl, err := pilot.New(pcfg)
		if err != nil {
			return err
		}
		samples, err := pilot.SamplesFromRecords(pcfg, data.Records)
		if err != nil {
			return err
		}
		samples = pilot.AugmentFlip(samples)
		epochHist := o.Metrics.Histogram("autolearn_train_epoch_seconds",
			obs.DefSecondsBuckets, obs.L("pilot", string(kind)))
		hist, err := pl.Train(samples, nn.TrainConfig{
			Epochs: *epochs, BatchSize: 32, ValFrac: 0.15, Seed: 2, ClipGrad: 5,
			EpochObserver: func(_ nn.EpochStats, dur time.Duration) { epochHist.ObserveDuration(dur) }})
		if err != nil {
			return err
		}
		drv, err := pilot.NewAutoDriver(pl)
		if err != nil {
			return err
		}
		evalCar, err := m.NewCar()
		if err != nil {
			return err
		}
		evalSes, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: *evalTicks, OffTrackMargin: 0.15, ResetOnCrash: true},
			evalCar, m.Camera(), drv)
		if err != nil {
			return err
		}
		res := evalSes.Run(faults.Epoch)
		if err := drv.Err(); err != nil {
			return err
		}
		rep, err := eval.Evaluate(res, m.Track, 20)
		if err != nil {
			return err
		}
		rows = append(rows, eval.Comparison{Name: string(kind), ValLoss: hist.BestValLoss,
			ParamCount: pl.ParamCount(), Report: rep})
		sp.SetAttr("params", pl.ParamCount())
		sp.SetAttr("best_val_loss", hist.BestValLoss)
		sp.SetAttr("epochs", len(hist.Epochs))
		sp.SetAttr("laps", rep.Laps)
		sp.SetAttr("crashes", rep.Crashes)
		sp.SetAttr("frontier", rep.Frontier())
		sp.End()
		fmt.Printf("%-12s %-9d %-9.4f %-6d %-8d %-8.2f %.3f\n",
			kind, pl.ParamCount(), hist.BestValLoss, rep.Laps, rep.Crashes, rep.MeanSpeed, rep.Frontier())
	}
	if best := eval.Best(rows); best >= 0 {
		root.SetAttr("best", rows[best].Name)
		fmt.Printf("best on the speed x accuracy frontier: %s (the paper's team found: inferred)\n", rows[best].Name)
	}
	root.End()
	return of.write(o)
}

// cmdTwin runs the digital-twin divergence table.
func cmdTwin(args []string) error {
	fs := flag.NewFlagSet("twin", flag.ExitOnError)
	trackName := fs.String("track", "default-oval", "track name")
	ticks := fs.Int("ticks", 800, "ticks per plant")
	fs.Parse(args)

	trk, err := track.ByName(*trackName)
	if err != nil {
		return err
	}
	camCfg := sim.SmallCameraConfig()
	camCfg.Width, camCfg.Height = 24, 16
	carCfg := sim.DefaultCarConfig()
	fmt.Printf("%-10s %-10s %-10s %-10s %s\n", "gap", "magnitude", "posRMSE", "finalErr", "cmdRMSE")
	for _, tc := range []struct {
		name string
		p    twin.Perturbation
	}{
		{"identity", twin.Identity()},
		{"mild", twin.Mild()},
		{"severe", twin.Severe()},
	} {
		res, err := twin.Run(twin.Config{
			Track: trk, Camera: camCfg, Car: carCfg, Perturb: tc.p, Hz: 20, Ticks: *ticks,
			MakeDriver: func() sim.Driver { return sim.NewPurePursuit(trk, carCfg) },
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-10.2f %-10.3f %-10.3f %.4f\n",
			tc.name, tc.p.Magnitude(), res.PosRMSE, res.FinalPosError, res.CmdRMSE)
	}
	return nil
}

func cmdHybrid(args []string) error { return interruptible(runHybrid, args) }

// runHybrid trains a teacher, distills a student, and reports the working
// hybrid runtime (student on the car, teacher in the cloud, blended). It
// stops at the next phase boundary once ctx is done and returns ctx's
// error, having removed its work directory.
func runHybrid(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("hybrid", flag.ExitOnError)
	shrink := fs.Int("shrink", 8, "distillation shrink factor")
	blend := fs.Float64("blend", 0.4, "cloud blend weight in [0,1]")
	ticks := fs.Int("ticks", 600, "evaluation ticks")
	fs.Parse(args)

	cfg := core.DefaultConfig()
	cfg.Camera.Width, cfg.Camera.Height = 24, 16
	m, err := core.New(cfg)
	if err != nil {
		return err
	}
	s, err := m.Enroll("cli-student", "local")
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp("", "autolearn-hybrid-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	p, err := m.NewPipeline(s, work)
	if err != nil {
		return err
	}
	if err := phase(ctx, "training the teacher ..."); err != nil {
		return err
	}
	col, err := p.CollectData(core.Simulator, "d", 900)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, _, err := p.CleanData(col.TubDir); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	tr, err := p.Train(col.TubDir, pilot.Linear, "V100",
		nn.TrainConfig{Epochs: 5, BatchSize: 32, ValFrac: 0.15, Seed: 1, ClipGrad: 5}, faults.Epoch)
	if err != nil {
		return err
	}
	dc := pilot.DefaultDistillConfig()
	dc.Shrink = *shrink
	if err := phase(ctx, "distilling a %dx smaller student and running the hybrid loop ...", *shrink); err != nil {
		return err
	}
	hv, err := p.EvaluateHybrid(tr.ModelObject, core.DefaultPlacementModel(m.Net), dc, *blend, *ticks)
	if err != nil {
		return err
	}
	fmt.Printf("teacher %d params -> student %d params (distill val loss %.4f)\n",
		hv.TeacherParams, hv.StudentParams, hv.DistillLoss)
	fmt.Printf("on-car latency %v; drive: %d laps, %d crashes, mean speed %.2f m/s\n",
		hv.Latency, hv.Report.Laps, hv.Report.Crashes, hv.Report.MeanSpeed)
	return nil
}

// cmdMerge combines multiple tubs into one — the "mix and match" pathway.
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("out", "", "destination tub directory (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() == 0 {
		return fmt.Errorf("merge: usage: autolearn merge -out DIR SRC1 [SRC2 ...]")
	}
	dst, err := tub.Create(*out)
	if err != nil {
		return err
	}
	var sources []*tub.Tub
	for _, dir := range fs.Args() {
		t, err := tub.Open(dir)
		if err != nil {
			return fmt.Errorf("merge: %s: %w", dir, err)
		}
		sources = append(sources, t)
	}
	n, err := tub.Merge(dst, sources...)
	if err != nil {
		return err
	}
	fmt.Printf("merged %d records from %d tubs into %s\n", n, len(sources), *out)
	return nil
}
