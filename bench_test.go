package repro

// This file is the reproduction harness: one benchmark per figure and
// per implied experiment of the paper (see DESIGN.md §4 for the index).
// Each benchmark regenerates the rows/series the paper reports and prints
// them once; numbers land in EXPERIMENTS.md.
//
//	F1  BenchmarkFig1Pipeline    — the full collect→clean→train→evaluate loop
//	F2  BenchmarkFig2Collection  — the three data collection paths
//	F3  BenchmarkFig3Tracks      — the two tracks' geometry and drivability
//	E1  BenchmarkE1SixModels     — six pilots: loss, params, autonomy
//	E2  BenchmarkE2GPUSweep      — training time across GPU SKUs
//	E3  BenchmarkE3Placement     — edge/cloud/hybrid control latency sweep
//	E4  BenchmarkE4DigitalTwin   — sim-vs-real divergence vs perturbation
//	E5  BenchmarkE5Trovi         — artifact adoption funnel
//	E6  BenchmarkE6ZeroToReady   — BYOD onboarding timeline
//	E7  BenchmarkE7Reservations  — classroom reservation contention
//	E8  BenchmarkE8Transfer      — tub transfer across link profiles
//
// plus the design-choice ablations called out in DESIGN.md §5:
//
//	BenchmarkAblationConvIm2col / BenchmarkAblationConvNaive
//	BenchmarkAblationCatalogSize
//	BenchmarkAblationHybridShrink

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/fed"
	"repro/internal/gossip"
	"repro/internal/netem"
	"repro/internal/nn"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pilot"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/track"
	"repro/internal/trovi"
	"repro/internal/tub"
	"repro/internal/twin"
)

var benchEpoch = time.Date(2023, 9, 1, 9, 0, 0, 0, time.UTC)

// fastModuleConfig shrinks the camera so CPU training stays benchable.
func fastModuleConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Camera.Width, cfg.Camera.Height = 24, 16
	return cfg
}

// printOnce gates table output so tables print once regardless of b.N.
var printedTables sync.Map

func tableOnce(name string, fn func()) {
	if _, loaded := printedTables.LoadOrStore(name, true); !loaded {
		fn()
	}
}

// ---------------------------------------------------------------- F1 ----

// BenchmarkFig1Pipeline reproduces Fig. 1: the complete AutoLearn loop on
// the simulator pathway, reporting each phase's cost.
func BenchmarkFig1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// F1 runs at a slightly larger camera than the micro benches: the
		// point is a pipeline whose product actually drives.
		cfg := core.DefaultConfig()
		cfg.Camera.Width, cfg.Camera.Height = 32, 24
		m, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		student, err := m.Enroll("bench", "edu")
		if err != nil {
			b.Fatal(err)
		}
		work := b.TempDir()
		p, err := m.NewPipeline(student, work)
		if err != nil {
			b.Fatal(err)
		}
		p.Augment = true
		col, err := p.CollectData(core.Simulator, "d", 1400)
		if err != nil {
			b.Fatal(err)
		}
		marked, remaining, err := p.CleanData(col.TubDir)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := p.Train(col.TubDir, pilot.Inferred, testbed.V100,
			nn.TrainConfig{Epochs: 8, BatchSize: 32, ValFrac: 0.15, Seed: 1, ClipGrad: 5}, benchEpoch)
		if err != nil {
			b.Fatal(err)
		}
		ev, err := p.Evaluate(tr.ModelObject, core.EdgePlacement, core.DefaultPlacementModel(m.Net), 600)
		if err != nil {
			b.Fatal(err)
		}
		tableOnce("fig1", func() {
			fmt.Printf("\n[Fig1] pipeline: collected=%d cleaned=%d->%d valLoss=%.4f gpuTime=%v evalLaps=%d evalCrashes=%d meanSpeed=%.2f\n",
				col.Records, marked, remaining, tr.History.BestValLoss,
				tr.SimGPUTime.Round(time.Second), ev.Report.Laps, ev.Report.Crashes, ev.Report.MeanSpeed)
		})
		b.ReportMetric(tr.History.BestValLoss, "valloss")
		b.ReportMetric(float64(ev.Report.Laps), "laps")
	}
}

// ---------------------------------------------------------------- F2 ----

// BenchmarkFig2Collection reproduces Fig. 2: the three data collection
// paths, reporting records obtained and the cost of each path.
func BenchmarkFig2Collection(b *testing.B) {
	// The regular pathway has a physical car; the digital default would
	// reject the third collection path.
	cfg := fastModuleConfig()
	cfg.Pathway = core.Regular
	m, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.PublishSampleDataset("oval-sample", 600, 3); err != nil {
		b.Fatal(err)
	}
	student, err := m.Enroll("bench", "edu")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := m.NewPipeline(student, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		sample, err := p.CollectData(core.SampleDatasets, "oval-sample", 0)
		if err != nil {
			b.Fatal(err)
		}
		simu, err := p.CollectData(core.Simulator, "sim", 600)
		if err != nil {
			b.Fatal(err)
		}
		phys, err := p.CollectData(core.PhysicalCar, "car", 600)
		if err != nil {
			b.Fatal(err)
		}
		tableOnce("fig2", func() {
			fmt.Printf("\n[Fig2] %-16s %-9s %-6s %-7s %s\n", "path", "records", "bad", "laps", "cost")
			fmt.Printf("[Fig2] %-16s %-9d %-6s %-7s download %v\n", sample.Path, sample.Records, "-", "-", sample.Transfer.Round(time.Millisecond))
			fmt.Printf("[Fig2] %-16s %-9d %-6d %-7d drive %v\n", simu.Path, simu.Records, simu.Bad, simu.Laps, simu.Drive)
			fmt.Printf("[Fig2] %-16s %-9d %-6d %-7d drive %v\n", phys.Path, phys.Records, phys.Bad, phys.Laps, phys.Drive)
		})
	}
}

// ---------------------------------------------------------------- F3 ----

// BenchmarkFig3Tracks reproduces Fig. 3: both tracks' geometry versus the
// paper's measurements and the expert's drivability on each.
func BenchmarkFig3Tracks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := make([]string, 0, 2)
		for _, name := range []string{"default-oval", "waveshare"} {
			trk, err := track.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			s := trk.Summarize()
			car, err := sim.NewCar(sim.DefaultCarConfig())
			if err != nil {
				b.Fatal(err)
			}
			cam, err := sim.NewCamera(sim.SmallCameraConfig(), trk)
			if err != nil {
				b.Fatal(err)
			}
			ses, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 1200, OffTrackMargin: 0.1, ResetOnCrash: true},
				car, cam, sim.NewPurePursuit(trk, car.Cfg))
			if err != nil {
				b.Fatal(err)
			}
			res := ses.Run(benchEpoch)
			rep, err := eval.Evaluate(res, trk, 20)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("[Fig3] %-13s inner %5.1fin outer %5.1fin width %4.1fin | laps %d crashes %d meanLap %v",
				s.Name, s.InnerLength/track.MetersPerInch, s.OuterLength/track.MetersPerInch,
				s.AvgWidth/track.MetersPerInch, rep.Laps, rep.Crashes, rep.MeanLap.Round(100*time.Millisecond)))
		}
		tableOnce("fig3", func() {
			fmt.Println()
			fmt.Println("[Fig3] paper: oval inner 330in outer 509in width 27.59in")
			for _, r := range rows {
				fmt.Println(r)
			}
		})
	}
}

// ---------------------------------------------------------------- E1 ----

// BenchmarkE1SixModels reproduces the §3.3 six-model comparison: each of
// the six pilots is trained on the same cleaned dataset and evaluated
// autonomously; the paper's finding is that the inferred model sits on the
// speed×accuracy frontier.
func BenchmarkE1SixModels(b *testing.B) {
	// E1 uses a slightly larger camera than the other benches: the model
	// comparison is about steering accuracy, which 24x16 frames undersell.
	cfg := core.DefaultConfig()
	cfg.Camera.Width, cfg.Camera.Height = 32, 24
	m, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Shared dataset: one clean expert drive.
	car, err := m.NewCar()
	if err != nil {
		b.Fatal(err)
	}
	ses, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 1600, OffTrackMargin: 0.1, ResetOnCrash: true},
		car, m.Camera(), sim.NewPurePursuit(m.Track, car.Cfg))
	if err != nil {
		b.Fatal(err)
	}
	data := ses.Run(benchEpoch)
	b.ResetTimer()

	for i := 0; i < b.N; i++ {
		rows := make([]eval.Comparison, 0, 6)
		for _, kind := range pilot.AllKinds() {
			cfg := m.DefaultPilotConfig(kind)
			pl, err := pilot.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			samples, err := pilot.SamplesFromRecords(cfg, data.Records)
			if err != nil {
				b.Fatal(err)
			}
			// Standard DonkeyCar augmentation: mirrored copies balance the
			// one-way oval's turn distribution.
			samples = pilot.AugmentFlip(samples)
			hist, err := pl.Train(samples, nn.TrainConfig{Epochs: 8, BatchSize: 32, ValFrac: 0.15, Seed: 2, ClipGrad: 5})
			if err != nil {
				b.Fatal(err)
			}
			// Evaluate from three start positions and aggregate, so one
			// lucky or unlucky corner does not decide the ranking.
			agg := eval.Report{}
			for _, startS := range []float64{0, 3.5, 7.0} {
				drv, err := pilot.NewAutoDriver(pl)
				if err != nil {
					b.Fatal(err)
				}
				evalCar, err := m.NewCar()
				if err != nil {
					b.Fatal(err)
				}
				evalSes, err := sim.NewSession(sim.SessionConfig{
					Hz: 20, MaxTicks: 600, StartS: startS, OffTrackMargin: 0.15, ResetOnCrash: true,
				}, evalCar, m.Camera(), drv)
				if err != nil {
					b.Fatal(err)
				}
				res := evalSes.Run(benchEpoch)
				if err := drv.Err(); err != nil {
					b.Fatal(err)
				}
				rep, err := eval.Evaluate(res, m.Track, 20)
				if err != nil {
					b.Fatal(err)
				}
				agg.Laps += rep.Laps
				agg.Crashes += rep.Crashes
				agg.MeanSpeed += rep.MeanSpeed / 3
			}
			rows = append(rows, eval.Comparison{
				Name:       string(kind),
				TrainLoss:  hist.FinalTrainLoss(),
				ValLoss:    hist.BestValLoss,
				ParamCount: pl.ParamCount(),
				Report:     agg,
			})
		}
		best := eval.Best(rows)
		tableOnce("e1", func() {
			fmt.Printf("\n[E1] %-12s %-9s %-9s %-9s %-5s %-7s %-7s %s\n",
				"model", "params", "trainL", "valL", "laps", "crashes", "speed", "frontier")
			for j, r := range rows {
				marker := " "
				if j == best {
					marker = "*"
				}
				fmt.Printf("[E1] %-12s %-9d %-9.4f %-9.4f %-5d %-7d %-7.2f %.3f %s\n",
					r.Name, r.ParamCount, r.TrainLoss, r.ValLoss,
					r.Report.Laps, r.Report.Crashes, r.Report.MeanSpeed, r.Report.Frontier(), marker)
			}
			fmt.Printf("[E1] best on the speed x accuracy frontier: %s (paper found: inferred)\n", rows[best].Name)
		})
	}
}

// ---------------------------------------------------------------- E2 ----

// e2Job is E2's training job: a full 50k-record dataset (the top of the
// paper's 10-50k range) through a DonkeyCar-scale model.
var e2Job = testbed.TrainingJob{Samples: 50_000, ParamCount: 5_000_000, Epochs: 30, BatchSize: 64}

// e2GPUs are the SKUs the paper lists, in DESIGN.md §4's order: each
// trains e2Job faster than the next.
var e2GPUs = []testbed.GPUType{testbed.A100, testbed.V100NVLink, testbed.V100, testbed.RTX6000, testbed.P100}

// e2Run models e2Job's training time on one GPU of each SKU in e2GPUs.
// It calls no tb.Helper: BenchmarkE2GPUSweep times each call, and Helper
// would cost more than the five calls it wraps.
func e2Run(tb testing.TB) []time.Duration {
	durations := make([]time.Duration, len(e2GPUs))
	for j, g := range e2GPUs {
		inst := &testbed.Instance{GPU: g, GPUCount: 1}
		d, err := inst.TrainingTime(e2Job)
		if err != nil {
			tb.Fatal(err)
		}
		durations[j] = d
	}
	return durations
}

// e2Rows returns E2's modelled numbers, one row per SKU: the training
// time BenchmarkE2GPUSweep prints, in seconds.
func e2Rows() []modelledRow {
	rows := make([]modelledRow, len(e2GPUs))
	for j, g := range e2GPUs {
		rows[j] = modelledRow{string(g), func(tb testing.TB) []metric {
			return []metric{{"train_s", e2Run(tb)[j].Seconds()}}
		}}
	}
	return rows
}

// BenchmarkE2GPUSweep reproduces the §3.3 GPU-node sweep: the same
// training job timed on every SKU the paper lists.
func BenchmarkE2GPUSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		durations := e2Run(b)
		tableOnce("e2", func() {
			fmt.Printf("\n[E2] training job: %d samples x %d params x %d epochs\n", e2Job.Samples, e2Job.ParamCount, e2Job.Epochs)
			for j, g := range e2GPUs {
				fmt.Printf("[E2] %-12s %8v (%.2fx V100)\n", g, durations[j].Round(time.Second),
					float64(durations[2])/float64(durations[j]))
			}
		})
	}
}

// ---------------------------------------------------------------- E3 ----

// BenchmarkE3Placement reproduces the edge/cloud/hybrid inference
// trade-off sweep across WAN latencies (the "Chasing Clouds" poster).
func BenchmarkE3Placement(b *testing.B) {
	net := netem.NewNet(1)
	params := 150_000
	wans := []time.Duration{5, 20, 50, 100, 200}
	for i := 0; i < b.N; i++ {
		type row struct {
			wan time.Duration
			lat map[core.Placement]time.Duration
		}
		var rows []row
		for _, w := range wans {
			pm := core.DefaultPlacementModel(net)
			pm.Link = pm.Link.WithLatency(w * time.Millisecond)
			r := row{wan: w * time.Millisecond, lat: map[core.Placement]time.Duration{}}
			for _, pl := range core.AllPlacements() {
				d, err := pm.ControlLatency(pl, params)
				if err != nil {
					b.Fatal(err)
				}
				r.lat[pl] = d
			}
			rows = append(rows, r)
		}
		tableOnce("e3", func() {
			fmt.Printf("\n[E3] %-8s %-12s %-12s %-12s (20 Hz deadline = 50ms)\n", "wan", "edge", "cloud", "hybrid")
			for _, r := range rows {
				fmt.Printf("[E3] %-8v %-12v %-12v %-12v\n", r.wan,
					r.lat[core.EdgePlacement].Round(time.Microsecond),
					r.lat[core.CloudPlacement].Round(time.Microsecond),
					r.lat[core.HybridPlacement].Round(time.Microsecond))
			}
			// Crossover row: big model, fast link.
			pm := core.DefaultPlacementModel(net)
			pm.Link = netem.FabricManaged
			eBig, _ := pm.ControlLatency(core.EdgePlacement, 60_000_000)
			cBig, _ := pm.ControlLatency(core.CloudPlacement, 60_000_000)
			fmt.Printf("[E3] crossover (60M params, FABRIC link): edge %v vs cloud %v -> cloud wins: %v\n",
				eBig.Round(time.Millisecond), cBig.Round(time.Millisecond), cBig < eBig)
			// Driving quality vs injected control delay (the latency's
			// physical consequence), using the deterministic expert.
			for _, delay := range []int{0, 4, 9} {
				laps, crashes, speed := driveWithDelay(b, delay)
				fmt.Printf("[E3] delay %d ticks (%dms): laps %d crashes %d speed %.2f\n",
					delay, delay*50, laps, crashes, speed)
			}
		})
	}
}

// driveWithDelay runs the expert with a fixed command delay and reports
// the resulting driving quality.
func driveWithDelay(b *testing.B, delayTicks int) (laps, crashes int, speed float64) {
	b.Helper()
	m, err := core.New(fastModuleConfig())
	if err != nil {
		b.Fatal(err)
	}
	car, err := m.NewCar()
	if err != nil {
		b.Fatal(err)
	}
	dd, err := core.NewDelayedDriver(expertFrameDriver{sim.NewPurePursuit(m.Track, car.Cfg)}, delayTicks)
	if err != nil {
		b.Fatal(err)
	}
	ses, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 600, OffTrackMargin: 0.15, ResetOnCrash: true},
		car, m.Camera(), dd)
	if err != nil {
		b.Fatal(err)
	}
	res := ses.Run(benchEpoch)
	return res.Laps, res.Crashes, res.MeanSpeed
}

// expertFrameDriver exposes the pure-pursuit expert as a FrameDriver so
// the delay wrapper accepts it.
type expertFrameDriver struct{ pp *sim.PurePursuit }

func (e expertFrameDriver) DriveFrame(_ *sim.Frame, st sim.CarState) (float64, float64) {
	return e.pp.Drive(st)
}
func (e expertFrameDriver) Drive(st sim.CarState) (float64, float64) { return e.pp.Drive(st) }

// ---------------------------------------------------------------- E4 ----

// BenchmarkE4DigitalTwin reproduces the digital-twin divergence experiment
// (the "Road To Reliability" poster): divergence grows with the
// sim-to-real gap.
func BenchmarkE4DigitalTwin(b *testing.B) {
	trk, err := track.DefaultOval()
	if err != nil {
		b.Fatal(err)
	}
	camCfg := sim.SmallCameraConfig()
	camCfg.Width, camCfg.Height = 16, 12
	carCfg := sim.DefaultCarConfig()
	perts := []struct {
		name string
		p    twin.Perturbation
	}{
		{"identity", twin.Identity()},
		{"mild", twin.Mild()},
		{"severe", twin.Severe()},
	}
	for i := 0; i < b.N; i++ {
		var lines []string
		for _, tc := range perts {
			res, err := twin.Run(twin.Config{
				Track: trk, Camera: camCfg, Car: carCfg, Perturb: tc.p, Hz: 20, Ticks: 500,
				MakeDriver: func() sim.Driver { return sim.NewPurePursuit(trk, carCfg) },
			})
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("[E4] %-10s magnitude %.2f  posRMSE %.3f m  finalErr %.3f m  cmdRMSE %.4f",
				tc.name, tc.p.Magnitude(), res.PosRMSE, res.FinalPosError, res.CmdRMSE))
		}
		tableOnce("e4", func() {
			fmt.Println()
			for _, l := range lines {
				fmt.Println(l)
			}
		})
	}
}

// ---------------------------------------------------------------- E5 ----

// BenchmarkE5Trovi reproduces the §5 adoption metrics: the simulated user
// population yields the paper's funnel (35 clicks > 9 launchers > 2
// executors; 8 versions).
func BenchmarkE5Trovi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := trovi.NewHub()
		a, err := h.Publish("AutoLearn", []string{"authors"}, []byte("v1"), benchEpoch)
		if err != nil {
			b.Fatal(err)
		}
		m, err := trovi.DefaultPopulation().Run(h, a.ID, benchEpoch)
		if err != nil {
			b.Fatal(err)
		}
		tableOnce("e5", func() {
			fmt.Printf("\n[E5] %-22s %-10s %s\n", "metric", "measured", "paper")
			fmt.Printf("[E5] %-22s %-10d %d\n", "launch clicks", m.LaunchClicks, 35)
			fmt.Printf("[E5] %-22s %-10d %d\n", "launching users", m.LaunchUsers, 9)
			fmt.Printf("[E5] %-22s %-10d %d\n", "executing users", m.ExecUsers, 2)
			fmt.Printf("[E5] %-22s %-10d %d (+1 initial)\n", "versions", m.Versions, 8)
		})
		b.ReportMetric(float64(m.LaunchClicks), "clicks")
	}
}

// ---------------------------------------------------------------- E6 ----

// BenchmarkE6ZeroToReady reproduces the §3.5 BYOD zero-to-ready pathway
// timeline.
func BenchmarkE6ZeroToReady(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := edge.NewHub()
		res, err := h.ZeroToReady("car", "student", "edu", "autolearn:latest", 800<<20, benchEpoch)
		if err != nil {
			b.Fatal(err)
		}
		tableOnce("e6", func() {
			fmt.Println()
			for _, s := range res.Steps {
				fmt.Printf("[E6] %-16s %v\n", s.Name, s.Duration.Round(time.Second))
			}
			fmt.Printf("[E6] %-16s %v\n", "TOTAL", res.Total.Round(time.Second))
		})
		b.ReportMetric(res.Total.Seconds(), "s/zero-to-ready")
	}
}

// ---------------------------------------------------------------- E7 ----

// BenchmarkE7Reservations reproduces classroom contention: 30 students
// competing for scarce A100 slots with RTX6000 fallback and later-slot
// spill, measuring placement outcomes and utilization.
func BenchmarkE7Reservations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := testbed.New(testbed.DefaultInventory())
		if _, err := tb.CreateProject("class", "lab", true); err != nil {
			b.Fatal(err)
		}
		onA100, onRTX, spilled := 0, 0, 0
		for s := 0; s < 30; s++ {
			u := testbed.User{Name: fmt.Sprintf("s%02d", s)}
			if err := tb.AddMember("class", u); err != nil {
				b.Fatal(err)
			}
			sess, err := tb.Login(u, "class")
			if err != nil {
				b.Fatal(err)
			}
			placed := false
			for slot := 0; slot < 4 && !placed; slot++ {
				from := benchEpoch.Add(time.Duration(slot) * time.Hour)
				for _, gpu := range []testbed.GPUType{testbed.A100, testbed.RTX6000} {
					if _, err := sess.Reserve(testbed.NodeFilter{GPU: gpu}, from, from.Add(time.Hour)); err == nil {
						placed = true
						if gpu == testbed.A100 {
							onA100++
						} else {
							onRTX++
						}
						if slot > 0 {
							spilled++
						}
						break
					}
				}
			}
			if !placed {
				b.Fatal("student unplaceable")
			}
		}
		util := tb.Utilization(testbed.NodeFilter{GPU: testbed.A100}, benchEpoch, benchEpoch.Add(4*time.Hour))
		tableOnce("e7", func() {
			fmt.Printf("\n[E7] 30 students: %d on A100, %d on RTX6000, %d pushed later; A100 util %.0f%%\n",
				onA100, onRTX, spilled, util*100)
		})
	}
}

// ---------------------------------------------------------------- E8 ----

// BenchmarkE8Transfer reproduces the §3.3 data movement step ("copies the
// training data using rsync"): a real tub's on-disk size moved across the
// stock link profiles, plus the object-store model download.
func BenchmarkE8Transfer(b *testing.B) {
	// Build a real tub once to get a genuine byte size.
	dir := b.TempDir()
	t, err := tub.Create(dir)
	if err != nil {
		b.Fatal(err)
	}
	w, err := tub.NewWriter(t)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		f, err := sim.NewFrame(24, 16, 1)
		if err != nil {
			b.Fatal(err)
		}
		for j := range f.Pix {
			f.Pix[j] = uint8(rng.Intn(256))
		}
		if _, err := w.Write(sim.Record{Frame: f, Steering: 0.1, Throttle: 0.4,
			Timestamp: benchEpoch.Add(time.Duration(i) * 50 * time.Millisecond)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	size, err := t.SizeBytes()
	if err != nil {
		b.Fatal(err)
	}
	links := []netem.Link{netem.WiFiLocal, netem.HomeBroadband, netem.CampusWAN, netem.FabricManaged}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := netem.NewNet(1)
		var lines []string
		for _, l := range links {
			res, err := net.Transfer(l, size)
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("[E8] %-16s %8.2f MB in %8v (%.1f Mbit/s effective)",
				l.Name, float64(size)/1e6, res.Duration.Round(time.Millisecond), res.Throughput*8/1e6))
		}
		tableOnce("e8", func() {
			fmt.Printf("\n[E8] tub: 300 records, %d bytes on disk\n", size)
			for _, l := range lines {
				fmt.Println(l)
			}
		})
	}
}

// ----------------------------------------------------------- ablations ----

// BenchmarkAblationConvIm2col and BenchmarkAblationConvNaive compare the
// two Conv2D kernels (DESIGN.md §5): the im2col lowering should win.
func benchConv(b *testing.B, naive bool) {
	rng := rand.New(rand.NewSource(1))
	c, err := nn.NewConv2D(1, 8, 5, 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	c.Naive = naive
	x := nn.NewTensor(16, 1, 48, 64)
	x.RandNormal(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationConvIm2col(b *testing.B) { benchConv(b, false) }
func BenchmarkAblationConvNaive(b *testing.B)  { benchConv(b, true) }

// BenchmarkAblationCatalogSize sweeps the tub catalog chunk size to show
// write-throughput sensitivity.
func BenchmarkAblationCatalogSize(b *testing.B) {
	for _, size := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("catalog=%d", size), func(b *testing.B) {
			frame, err := sim.NewFrame(24, 16, 1)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				dir, err := os.MkdirTemp("", "tub-ablation-*")
				if err != nil {
					b.Fatal(err)
				}
				t, err := tub.Create(dir)
				if err != nil {
					b.Fatal(err)
				}
				w, err := tub.NewWriter(t)
				if err != nil {
					b.Fatal(err)
				}
				w.CatalogSize = size
				for r := 0; r < 200; r++ {
					if _, err := w.Write(sim.Record{Frame: frame, Timestamp: benchEpoch}); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				os.RemoveAll(dir)
			}
		})
	}
}

// BenchmarkAblationHybridShrink sweeps the hybrid placement's distillation
// factor: latency falls as the on-car model shrinks.
func BenchmarkAblationHybridShrink(b *testing.B) {
	net := netem.NewNet(1)
	for i := 0; i < b.N; i++ {
		var lines []string
		for _, shrink := range []int{2, 4, 8, 16} {
			pm := core.DefaultPlacementModel(net)
			pm.HybridShrink = shrink
			d, err := pm.ControlLatency(core.HybridPlacement, 150_000)
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("[Ablation] hybrid shrink %2dx -> %v", shrink, d.Round(time.Microsecond)))
		}
		tableOnce("hybrid-shrink", func() {
			fmt.Println()
			for _, l := range lines {
				fmt.Println(l)
			}
		})
	}
}

// BenchmarkAblationBatchNorm compares training the linear pilot with and
// without batch normalization in the encoder (DonkeyCar's stock models use
// BN; the small fast configs here default to off).
func BenchmarkAblationBatchNorm(b *testing.B) {
	m, err := core.New(fastModuleConfig())
	if err != nil {
		b.Fatal(err)
	}
	car, err := m.NewCar()
	if err != nil {
		b.Fatal(err)
	}
	ses, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 500, OffTrackMargin: 0.1, ResetOnCrash: true},
		car, m.Camera(), sim.NewPurePursuit(m.Track, car.Cfg))
	if err != nil {
		b.Fatal(err)
	}
	data := ses.Run(benchEpoch)
	for _, useBN := range []bool{false, true} {
		name := "plain"
		if useBN {
			name = "batchnorm"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := m.DefaultPilotConfig(pilot.Linear)
				cfg.BatchNorm = useBN
				pl, err := pilot.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				samples, err := pilot.SamplesFromRecords(cfg, data.Records)
				if err != nil {
					b.Fatal(err)
				}
				h, err := pl.Train(samples, nn.TrainConfig{Epochs: 3, BatchSize: 32, ValFrac: 0.15, Seed: 2, ClipGrad: 5})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(h.BestValLoss, "valloss")
			}
		})
	}
}

// ---------------------------------------------------------------- E9 ----

// BenchmarkE9SpeedGovernor reproduces the "Road To Reliability" poster:
// closing the throttle loop around real-time odometer data reduces the
// speed-consistency metric (coefficient of variation) versus open-loop
// throttle on a perturbed (extra-drag) plant.
func BenchmarkE9SpeedGovernor(b *testing.B) {
	trk, err := track.DefaultOval()
	if err != nil {
		b.Fatal(err)
	}
	camCfg := sim.SmallCameraConfig()
	camCfg.Width, camCfg.Height = 16, 12
	carCfg := sim.DefaultCarConfig()
	carCfg.Drag *= 1.6

	consistency := func(governed bool) float64 {
		cam, err := sim.NewCamera(camCfg, trk)
		if err != nil {
			b.Fatal(err)
		}
		car, err := sim.NewCar(carCfg)
		if err != nil {
			b.Fatal(err)
		}
		pp := sim.NewPurePursuit(trk, carCfg)
		tick := 0
		var base sim.FrameDriver = steerWobble{pp, &tick}
		drv := base
		if governed {
			odo, err := sim.NewOdometer(2000, 0.01, 4)
			if err != nil {
				b.Fatal(err)
			}
			gov, err := sim.NewSpeedGovernor(constCruise{base}, odo, 2.0, 20)
			if err != nil {
				b.Fatal(err)
			}
			drv = gov
		}
		ses, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 700, OffTrackMargin: 0.15, ResetOnCrash: true},
			car, cam, drv)
		if err != nil {
			b.Fatal(err)
		}
		res := ses.Run(benchEpoch)
		rep, err := eval.Evaluate(res, trk, 20)
		if err != nil {
			b.Fatal(err)
		}
		return rep.SpeedConsistency
	}
	for i := 0; i < b.N; i++ {
		open := consistency(false)
		governed := consistency(true)
		tableOnce("e9", func() {
			fmt.Printf("\n[E9] speed consistency (lower = steadier): open-loop %.4f, governed %.4f (%.1fx better)\n",
				open, governed, open/governed)
		})
		b.ReportMetric(governed, "cv-governed")
		b.ReportMetric(open, "cv-open")
	}
}

// steerWobble steers with the expert and emits a wobbling open-loop
// throttle like a noisy model output.
type steerWobble struct {
	pp   *sim.PurePursuit
	tick *int
}

func (s steerWobble) DriveFrame(_ *sim.Frame, st sim.CarState) (float64, float64) {
	steer, _ := s.pp.Drive(st)
	*s.tick++
	return steer, 0.45 + 0.15*math.Sin(float64(*s.tick)/9)
}
func (s steerWobble) Drive(st sim.CarState) (float64, float64) { return s.pp.Drive(st) }

// constCruise wraps a driver pinning its throttle intent to a cruise
// setpoint for the governor.
type constCruise struct{ inner sim.FrameDriver }

func (c constCruise) DriveFrame(f *sim.Frame, st sim.CarState) (float64, float64) {
	steer, _ := c.inner.DriveFrame(f, st)
	return steer, 0.5
}
func (c constCruise) Drive(st sim.CarState) (float64, float64) { return c.inner.Drive(st) }

// --------------------------------------------------------------- E10 ----

// e10DispatchCost is the modeled fixed cost of one backend forward-pass
// dispatch in the cloud serving tier: an accelerator kernel launch plus
// driver round trip, or the intra-datacenter RPC hop to a model server —
// the per-call overhead the paper's hybrid placement (§3.3, E3) attributes
// to cloud-side inference. It is charged once per InferBatch call through
// the service's slow hook, which is the defining economics of
// micro-batching: MaxBatch 1 pays it on every request, MaxBatch 32 pays it
// once per 32. The cpu/ rows below disable the hook and measure this
// host's raw scalar kernels, where the per-row forward cost is flat in
// batch size and the ratio is governed by transport overhead instead.
const e10DispatchCost = 250 * time.Microsecond

// e10Serve assembles an objstore-backed service around one checkpoint and
// returns an HTTP test server for it.
func e10Serve(b *testing.B, cfg serve.Config, ckpt []byte, model string, dispatch bool) *httptest.Server {
	b.Helper()
	store := objstore.New()
	if err := store.CreateContainer(core.ContainerModels); err != nil {
		b.Fatal(err)
	}
	if _, err := store.Put(core.ContainerModels, model+".ckpt", ckpt, nil); err != nil {
		b.Fatal(err)
	}
	reg, err := serve.NewRegistry(store, core.ContainerModels)
	if err != nil {
		b.Fatal(err)
	}
	if err := reg.Register(model, model+".ckpt"); err != nil {
		b.Fatal(err)
	}
	svc, err := serve.New(cfg, reg, nil)
	if err != nil {
		b.Fatal(err)
	}
	if dispatch {
		svc.SetSlowHook(func() time.Duration { return e10DispatchCost })
	}
	b.Cleanup(svc.Close)
	ts := httptest.NewServer(svc)
	b.Cleanup(ts.Close)
	return ts
}

// e10Drive fires b.N POST /predict requests from `clients` closed-loop
// goroutines and reports sustained req/s.
func e10Drive(b *testing.B, ts *httptest.Server, body []byte, clients int) {
	b.Helper()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: clients * 2, MaxIdleConnsPerHost: clients * 2,
	}}
	do := func() error {
		resp, err := client.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}
	if err := do(); err != nil { // warm connections, model, and scratch
		b.Fatal(err)
	}
	b.ResetTimer()
	var issued int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for atomic.AddInt64(&issued, 1) <= int64(b.N) {
				if err := do(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "req/s")
	}
}

// BenchmarkE10Serving measures the batched inference service end to end
// over HTTP: the same pilot served request-at-a-time (MaxBatch 1) versus
// micro-batched (MaxBatch 32) at 1/8/32 concurrent clients, with the
// backend dispatch model above charged per forward call. The window/ rows
// sweep the batch window at 32 clients, and the cpu/ rows record this
// host's no-dispatch baseline for reference.
func BenchmarkE10Serving(b *testing.B) {
	const (
		servingW, servingH = 24, 16
		servingModel       = "student"
	)
	cfg := pilot.DefaultConfig(pilot.Linear, servingW, servingH, 1)
	p, err := pilot.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := p.Save(&ckpt); err != nil {
		b.Fatal(err)
	}
	frame, err := sim.NewFrame(servingW, servingH, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for i := range frame.Pix {
		frame.Pix[i] = uint8(rng.Intn(256))
	}
	body, err := json.Marshal(map[string]any{
		"model": servingModel, "width": servingW, "height": servingH, "channels": 1,
		"frames": []string{base64.StdEncoding.EncodeToString(frame.Pix)},
	})
	if err != nil {
		b.Fatal(err)
	}

	base := serve.Config{QueueDepth: 1024, DefaultDeadline: 10 * time.Second}
	single := base
	single.MaxBatch, single.BatchWindow = 1, 0
	batched := base
	batched.MaxBatch, batched.BatchWindow = 32, 2*time.Millisecond

	for _, clients := range []int{1, 8, 32} {
		clients := clients
		b.Run(fmt.Sprintf("single/clients%d", clients), func(b *testing.B) {
			e10Drive(b, e10Serve(b, single, ckpt.Bytes(), servingModel, true), body, clients)
		})
	}
	for _, clients := range []int{1, 8, 32} {
		clients := clients
		b.Run(fmt.Sprintf("batched/clients%d", clients), func(b *testing.B) {
			e10Drive(b, e10Serve(b, batched, ckpt.Bytes(), servingModel, true), body, clients)
		})
	}
	for _, window := range []time.Duration{0, 500 * time.Microsecond, 5 * time.Millisecond} {
		window := window
		b.Run(fmt.Sprintf("window%v/clients32", window), func(b *testing.B) {
			cfg := batched
			cfg.BatchWindow = window
			e10Drive(b, e10Serve(b, cfg, ckpt.Bytes(), servingModel, true), body, 32)
		})
	}
	// Raw-CPU reference: no dispatch model, so single and batched differ
	// only by the per-forward fixed cost the scalar kernels amortize.
	b.Run("cpu/single/clients32", func(b *testing.B) {
		e10Drive(b, e10Serve(b, single, ckpt.Bytes(), servingModel, false), body, 32)
	})
	b.Run("cpu/batched/clients32", func(b *testing.B) {
		e10Drive(b, e10Serve(b, batched, ckpt.Bytes(), servingModel, false), body, 32)
	})
}

// BenchmarkPilotLoad measures checkpoint decode, which every serve
// register and hot swap, core evaluate and CLI command pays: one
// pilot.Load of the 64x48 inferred checkpoint `autolearn pipeline` trains.
func BenchmarkPilotLoad(b *testing.B) {
	p, err := pilot.New(pilot.DefaultConfig(pilot.Inferred, 64, 48, 1))
	if err != nil {
		b.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := p.Save(&ckpt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pilot.Load(bytes.NewReader(ckpt.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryLoad measures registering that same checkpoint with
// the serving registry at 1 and 8 replicas: one store fetch and one
// decode, then a clone per extra replica.
func BenchmarkRegistryLoad(b *testing.B) {
	p, err := pilot.New(pilot.DefaultConfig(pilot.Inferred, 64, 48, 1))
	if err != nil {
		b.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := p.Save(&ckpt); err != nil {
		b.Fatal(err)
	}
	st := objstore.New()
	if err := st.CreateContainer("models"); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Put("models", "inferred.ckpt", ckpt.Bytes(), nil); err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("replicas%d", n), func(b *testing.B) {
			reg, err := serve.NewRegistry(st, "models")
			if err != nil {
				b.Fatal(err)
			}
			if err := reg.SetReplicas(n); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := reg.Register("inferred", "inferred.ckpt"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPilotInference measures single-frame inference cost per
// architecture — the number the placement model prices with ParamCount.
func BenchmarkPilotInference(b *testing.B) {
	for _, kind := range pilot.AllKinds() {
		b.Run(string(kind), func(b *testing.B) {
			cfg := pilot.DefaultConfig(kind, 64, 48, 1)
			p, err := pilot.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			frame, err := sim.NewFrame(64, 48, 1)
			if err != nil {
				b.Fatal(err)
			}
			need := 1
			if kind == pilot.RNN || kind == pilot.Conv3D {
				need = cfg.SeqLen
			}
			s := pilot.Sample{}
			for i := 0; i < need; i++ {
				s.Frames = append(s.Frames, frame)
			}
			if kind == pilot.Memory {
				s.PrevCmds = make([][2]float64, cfg.MemoryLen)
			}
			b.ReportMetric(float64(p.ParamCount()), "params")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.Infer(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPilotInferenceQuant times InferBatch on the CLI's 64×48
// inferred pilot, float64 against int8, at a lone request (b1) and a
// full training-size batch (b32): the serving shapes where int8 has to
// beat the float64 kernels to be worth enabling.
func BenchmarkPilotInferenceQuant(b *testing.B) {
	for _, batch := range []int{1, 32} {
		for _, mode := range []string{"float64", nn.QuantInt8} {
			b.Run(fmt.Sprintf("%s/b%d", mode, batch), func(b *testing.B) {
				cfg := pilot.DefaultConfig(pilot.Inferred, 64, 48, 1)
				p, err := pilot.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if mode == nn.QuantInt8 {
					if err := p.EnableQuant(mode); err != nil {
						b.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(1))
				samples := make([]pilot.Sample, batch)
				for i := range samples {
					f, err := sim.NewFrame(cfg.Width, cfg.Height, cfg.Channels)
					if err != nil {
						b.Fatal(err)
					}
					for j := range f.Pix {
						f.Pix[j] = uint8(rng.Intn(256))
					}
					samples[i] = pilot.Sample{Frames: []*sim.Frame{f}}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := p.InferBatch(samples); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// metric is one number a benchmark row reports with b.ReportMetric.
type metric struct {
	unit string
	v    float64
}

// modelledRow is one benchmark row whose reported metrics are modelled:
// the seed and the virtual clock fix them, so they are exact on any host.
// The benchmark times run; TestModelledGolden pins what it returns.
type modelledRow struct {
	name string
	run  func(testing.TB) []metric
}

// modelledBenchmark is one benchmark's modelled rows.
type modelledBenchmark struct {
	name string
	rows []modelledRow
}

// modelledBenchmarks lists every row that reports a modelled number, in
// the order the benchmarks run them.
func modelledBenchmarks() []modelledBenchmark {
	return []modelledBenchmark{
		{"BenchmarkE2GPUSweep", e2Rows()},
		{"BenchmarkE11Federated", e11Rows()},
		{"BenchmarkE12FleetScale", e12Rows()},
		{"BenchmarkE13Scenario", e13Rows()},
		{"BenchmarkE14Quantized", e14QuantRows()},
		{"BenchmarkE15Gossip", e15Rows()},
	}
}

// benchModelled runs each row as a sub-benchmark and reports the metrics
// of its last run.
func benchModelled(b *testing.B, rows []modelledRow) {
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			var ms []metric
			for i := 0; i < b.N; i++ {
				ms = r.run(b)
			}
			b.StopTimer()
			for _, m := range ms {
				b.ReportMetric(m.v, m.unit)
			}
		})
	}
}

// fedMetrics is a federated run's headline trio: mean simulated round
// wall-clock (the staleness policy's cost), total bytes on the WAN (the
// compression profile's cost), and final validation loss (what either
// knob may degrade).
func fedMetrics(res fed.Result) []metric {
	return []metric{
		{"round_ms", float64(res.MeanRoundWall) / float64(time.Millisecond)},
		{"bytes_on_wire", float64(res.TotalBytes)},
		{"final_valloss", res.FinalValLoss},
	}
}

// e11Samples builds the federated fleet's synthetic driving set: frames
// whose bright column encodes steering, at the small geometry the serving
// benchmarks use, so local training stays CPU-cheap.
func e11Samples(tb testing.TB, cfg pilot.Config, n int) []pilot.Sample {
	tb.Helper()
	recs := make([]sim.Record, n)
	for i := 0; i < n; i++ {
		f, err := sim.NewFrame(cfg.Width, cfg.Height, 1)
		if err != nil {
			tb.Fatal(err)
		}
		angle := math.Sin(float64(i) / 5)
		col := int((angle + 1) / 2 * float64(cfg.Width-1))
		for y := 0; y < cfg.Height; y++ {
			f.Set(col, y, 255)
		}
		recs[i] = sim.Record{Index: i, Frame: f, Steering: angle, Throttle: 0.5,
			Timestamp: benchEpoch.Add(time.Duration(i) * 50 * time.Millisecond)}
	}
	samples, err := pilot.SamplesFromRecords(cfg, recs)
	if err != nil {
		tb.Fatal(err)
	}
	return samples
}

// e11Run executes one federated training run with the given staleness
// policy (quorum 0 is the synchronous barrier), compression profile and
// fault profile ("" is fault-free).
func e11Run(tb testing.TB, quorum int, compress, profile string) fed.Result {
	tb.Helper()
	pcfg := pilot.DefaultConfig(pilot.Linear, 24, 16, 1)
	pcfg.ConvFilters1, pcfg.ConvFilters2, pcfg.DenseUnits = 4, 8, 16
	samples := e11Samples(tb, pcfg, 220)
	cfg := fed.DefaultConfig()
	cfg.Workers = 4
	cfg.Rounds = 12
	cfg.LocalEpochs = 3
	cfg.BatchSize = 16
	cfg.Quorum = quorum
	cfg.Compress = compress
	cfg.TopKFrac = 0.2
	cfg.Seed = 11
	cfg.RoundGap = 8 * time.Second
	shards, err := fed.ShardSamples(samples[:180], cfg.Workers)
	if err != nil {
		tb.Fatal(err)
	}
	global, err := pilot.New(pcfg)
	if err != nil {
		tb.Fatal(err)
	}
	deps := fed.Deps{Net: netem.NewNet(cfg.Seed), Hub: edge.NewHub(),
		Store: objstore.New(), Start: benchEpoch}
	if profile != "" {
		deps.Plan = benchProfile(tb, profile, cfg.Seed, deps.Net)
	}
	r, err := fed.NewRun(cfg, deps, global, shards, samples[180:])
	if err != nil {
		tb.Fatal(err)
	}
	res, err := r.Execute()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// benchProfile generates the named fault profile as a scenario, attaches
// its runtime to net, and returns the runtime's fault plan.
func benchProfile(tb testing.TB, profile string, seed int64, net *netem.Net) *faults.Plan {
	tb.Helper()
	s, err := scenario.Profile(profile, seed)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := scenario.NewRuntime(s, seed, benchEpoch)
	if err != nil {
		tb.Fatal(err)
	}
	rt.Attach(net)
	return rt.Plan()
}

// e11Rows are E11's rows: the staleness pair under lossy-wan, the
// compression pair fault-free.
func e11Rows() []modelledRow {
	row := func(name string, quorum int, compress, profile string) modelledRow {
		return modelledRow{name, func(tb testing.TB) []metric {
			return fedMetrics(e11Run(tb, quorum, compress, profile))
		}}
	}
	return []modelledRow{
		row("sync/raw/lossy-wan", 0, "none", "lossy-wan"),
		row("quorum/raw/lossy-wan", 2, "none", "lossy-wan"),
		row("sync/raw/clean", 0, "none", ""),
		row("sync/topk/clean", 0, "topk", ""),
	}
}

// BenchmarkE11Federated is the federated-fleet experiment: the staleness
// policy pair (synchronous barrier vs 2-of-4 quorum) runs under the
// lossy-wan straggler profile, where outage retries inflate the barrier's
// round wall-clock but the quorum rides on its fastest workers; the
// compression pair (raw float64 vs top-k sparsified float16) runs
// fault-free, where top-k must cut bytes-on-wire >=3x without moving the
// final validation loss.
func BenchmarkE11Federated(b *testing.B) { benchModelled(b, e11Rows()) }

// e12Run executes one fleet-scale federated run — synthetic local updates
// (the coordination path is the measurement, not SGD), serialized upload
// ingress, a scripted fault plan driving heartbeat playback on the event
// scheduler.
func e12Run(tb testing.TB, workers int, hier bool) fed.Result {
	tb.Helper()
	// A deliberately tiny pilot: at 10k workers the fleet holds one pilot
	// per worker, and E12 measures coordination, not arithmetic.
	// 9 rows is the least the encoder's second 3x3 conv accepts.
	pcfg := pilot.DefaultConfig(pilot.Linear, 12, 9, 1)
	pcfg.ConvFilters1, pcfg.ConvFilters2, pcfg.DenseUnits = 2, 4, 8
	samples := e11Samples(tb, pcfg, 40)
	// Single-sample shards that alias a small pool: fleet size is decoupled
	// from dataset size, and synthetic training never mutates samples.
	shards := make([][]pilot.Sample, workers)
	for i := range shards {
		at := i % len(samples)
		shards[i] = samples[at : at+1]
	}
	cfg := fed.DefaultConfig()
	cfg.Workers = workers
	cfg.Rounds = 2
	cfg.BatchSize = 8
	cfg.Seed = 12
	cfg.Container = "" // checkpoint churn is not what E12 measures
	cfg.Hierarchical = hier
	cfg.IngressSerial = true
	cfg.SyntheticLocal = true
	global, err := pilot.New(pcfg)
	if err != nil {
		tb.Fatal(err)
	}
	net := netem.NewNet(cfg.Seed)
	plan := benchProfile(tb, "heartbeat-gap", cfg.Seed, net)
	deps := fed.Deps{Net: net, Hub: edge.NewHub(), Plan: plan, Start: benchEpoch}
	r, err := fed.NewRun(cfg, deps, global, shards, nil)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := r.Execute()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// e12Rows are E12's rows: 100 and 1k workers flat, 100, 1k and 10k
// hierarchical. Without a validation set the rows report round wall and
// bytes only.
func e12Rows() []modelledRow {
	var rows []modelledRow
	add := func(workers int, hier bool) {
		name := fmt.Sprintf("flat/w%d", workers)
		if hier {
			name = fmt.Sprintf("hier/w%d", workers)
		}
		rows = append(rows, modelledRow{name, func(tb testing.TB) []metric {
			return fedMetrics(e12Run(tb, workers, hier))[:2]
		}})
	}
	for _, workers := range []int{100, 1000} {
		add(workers, false)
	}
	for _, workers := range []int{100, 1000, 10000} {
		add(workers, true)
	}
	return rows
}

// BenchmarkE12FleetScale is the fleet-scale sweep: the same coordination
// round at 100, 1k, and 10k workers, flat versus hierarchical. Under
// serialized ingress the flat topology's round wall grows linearly with the
// fleet while the hierarchical one grows ~sqrt(N) (R regional queues drain
// in parallel, then R partials cross the WAN) — TestModelledGolden asserts
// hier/w10000 round wall < 10x hier/w1000's.
func BenchmarkE12FleetScale(b *testing.B) {
	b.ReportAllocs()
	benchModelled(b, e12Rows())
}

// e13Run executes one federated run scripted by a checked-in scenario
// file: the scenario runtime owns the fault plan and the link-shape
// table, the fed deps ride its clock, and after the last round the clock
// plays past the horizon so every scripted transition fires. It returns
// the run's result and the phase transitions actually replayed (a
// scenario that silently failed to apply reports short).
func e13Run(tb testing.TB, file string) (fed.Result, int) {
	tb.Helper()
	pcfg := pilot.DefaultConfig(pilot.Linear, 24, 16, 1)
	pcfg.ConvFilters1, pcfg.ConvFilters2, pcfg.DenseUnits = 4, 8, 16
	samples := e11Samples(tb, pcfg, 220)
	s, err := scenario.Load(file)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := scenario.NewRuntime(s, 11, benchEpoch)
	if err != nil {
		tb.Fatal(err)
	}
	rt.Start(obs.Observer{})
	cfg := fed.DefaultConfig()
	cfg.Workers = 4
	cfg.Rounds = 8
	cfg.LocalEpochs = 2
	cfg.BatchSize = 16
	cfg.Seed = 11
	// 25s of idle virtual time per round walks the run across the
	// library files' 2-3 minute phase timelines.
	cfg.RoundGap = 25 * time.Second
	shards, err := fed.ShardSamples(samples[:180], cfg.Workers)
	if err != nil {
		tb.Fatal(err)
	}
	global, err := pilot.New(pcfg)
	if err != nil {
		tb.Fatal(err)
	}
	deps := fed.Deps{Net: netem.NewNet(cfg.Seed), Hub: edge.NewHub(),
		Store: objstore.New(), Plan: rt.Plan(), Start: benchEpoch}
	rt.Attach(deps.Net)
	r, err := fed.NewRun(cfg, deps, global, shards, samples[180:])
	if err != nil {
		tb.Fatal(err)
	}
	res, err := r.Execute()
	if err != nil {
		tb.Fatal(err)
	}
	rt.Clock().Advance(s.Horizon())
	return res, rt.Finish()
}

// e13Rows are E13's rows, one per library file.
func e13Rows() []modelledRow {
	var rows []modelledRow
	for _, name := range []string{"clean", "lossy-wan", "cascading-outage"} {
		rows = append(rows, modelledRow{name, func(tb testing.TB) []metric {
			res, transitions := e13Run(tb, "scenarios/"+name+".scn")
			return append(fedMetrics(res), metric{"transitions", float64(transitions)})
		}})
	}
	return rows
}

// BenchmarkE13Scenario is the scenario-replay experiment: the same
// federated run under three files from the checked-in library. The clean
// control pins the fault-free cost; lossy-wan must inflate round wall
// against it (shaped bandwidth and loss slow every upload); the
// cascading outage adds partitions and a heartbeat silence on top. The
// transitions metric doubles as a replay check — it must equal each
// file's phase count, every run, or the scheduler dropped a phase.
func BenchmarkE13Scenario(b *testing.B) { benchModelled(b, e13Rows()) }

// --------------------------------------------------------------- E14 ----

// e14DispatchCost is the modeled per-batch backend dispatch cost for the
// serving scale-out rows: one accelerator kernel launch (or model-server
// RPC hop) charged per InferBatch through the slow hook, as in E10 but
// sized so scheduling — not this host's scalar kernels — dominates. With
// it in place each replica's throughput ceiling is dispatch-bound, so the
// procs sweep isolates what the issue is after: does adding replicas
// (each its own batcher + pilot instance) scale served req/s, or does a
// shared lock serialize them? The cpu/ rows disable the hook and record
// the raw-kernel baseline, which on a single physical core cannot scale
// and is reported for honesty, not as an acceptance number.
const e14DispatchCost = 2 * time.Millisecond

// e14QuantPilot builds the quantization benchmark's pilot and probe
// batch: a Linear pilot at camera 128x96 with a 2048-unit dense trunk, so
// the GEMM the int8 path accelerates carries ~94% of the MACs — the
// regime quantized edge inference targets (big dense trunk, small conv
// stem) — plus a 32-sample batch of dithered frames.
func e14QuantPilot(tb testing.TB) (*pilot.Pilot, []pilot.Sample) {
	tb.Helper()
	cfg := pilot.DefaultConfig(pilot.Linear, 128, 96, 1)
	cfg.ConvFilters1, cfg.ConvFilters2, cfg.DenseUnits = 8, 16, 2048
	cfg.Seed = 14
	p, err := pilot.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	samples := make([]pilot.Sample, 32)
	for i := range samples {
		f, err := sim.NewFrame(cfg.Width, cfg.Height, cfg.Channels)
		if err != nil {
			tb.Fatal(err)
		}
		for j := range f.Pix {
			f.Pix[j] = uint8(rng.Intn(256))
		}
		samples[i] = pilot.Sample{Frames: []*sim.Frame{f}}
	}
	return p, samples
}

// e14Quantize switches p to the int8 path and returns its max control
// drift on samples against the float64 kernels.
func e14Quantize(tb testing.TB, p *pilot.Pilot, samples []pilot.Sample) float64 {
	tb.Helper()
	ref, err := p.InferBatch(samples)
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.EnableQuant("int8"); err != nil {
		tb.Fatal(err)
	}
	out, err := p.InferBatch(samples)
	if err != nil {
		tb.Fatal(err)
	}
	drift, err := eval.QuantDrift(ref, out)
	if err != nil {
		tb.Fatal(err)
	}
	return drift
}

// e14QuantRows is E14's one modelled number, the int8 probe batch's
// drift, which BenchmarkE14Quantized/int8 reports as quant_maxdelta.
func e14QuantRows() []modelledRow {
	return []modelledRow{{"int8", func(tb testing.TB) []metric {
		p, samples := e14QuantPilot(tb)
		return []metric{{"quant_maxdelta", e14Quantize(tb, p, samples)}}
	}}}
}

// BenchmarkE14Quantized times the same InferBatch on the float64 kernels
// versus the int8 quantized path, and reports the quantized run's max
// control drift against the float64 reference as quant_maxdelta. The
// drift is enforced here — a run over eval.QuantBudget fails the
// benchmark, so a kernel change cannot buy speed with silent accuracy
// loss.
func BenchmarkE14Quantized(b *testing.B) {
	b.Run("float64", func(b *testing.B) {
		p, samples := e14QuantPilot(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.InferBatch(samples); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("int8", func(b *testing.B) {
		p, samples := e14QuantPilot(b)
		drift := e14Quantize(b, p, samples)
		if !eval.WithinQuantBudget(drift) {
			b.Fatalf("int8 drift %.4f exceeds budget %.2f", drift, eval.QuantBudget)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.InferBatch(samples); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(drift, "quant_maxdelta")
	})
}

// e14Serve assembles an in-process service (objstore -> registry ->
// batching schedulers) around one small checkpoint, shard-replicated
// `replicas` ways.
func e14Serve(b *testing.B, replicas int, ckpt []byte, model string, dispatch bool) *serve.Service {
	b.Helper()
	store := objstore.New()
	if err := store.CreateContainer(core.ContainerModels); err != nil {
		b.Fatal(err)
	}
	if _, err := store.Put(core.ContainerModels, model+".ckpt", ckpt, nil); err != nil {
		b.Fatal(err)
	}
	reg, err := serve.NewRegistry(store, core.ContainerModels)
	if err != nil {
		b.Fatal(err)
	}
	if err := reg.Register(model, model+".ckpt"); err != nil {
		b.Fatal(err)
	}
	cfg := serve.Config{
		MaxBatch: 8, BatchWindow: 500 * time.Microsecond,
		QueueDepth: 1024, DefaultDeadline: 10 * time.Second,
		Replicas: replicas,
	}
	svc, err := serve.New(cfg, reg, nil)
	if err != nil {
		b.Fatal(err)
	}
	if dispatch {
		svc.SetSlowHook(func() time.Duration { return e14DispatchCost })
	}
	b.Cleanup(svc.Close)
	return svc
}

// e14Drive fires b.N in-process Predict calls from `clients` closed-loop
// goroutines and reports sustained req/s. Calling Predict directly (no
// HTTP) keeps transport cost out of the multicore-scaling measurement.
func e14Drive(b *testing.B, svc *serve.Service, model string, sample pilot.Sample, clients int) {
	b.Helper()
	ctx := context.Background()
	if _, err := svc.Predict(ctx, model, sample); err != nil { // warm model + scratch
		b.Fatal(err)
	}
	b.ResetTimer()
	var issued int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for atomic.AddInt64(&issued, 1) <= int64(b.N) {
				if _, err := svc.Predict(ctx, model, sample); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "req/s")
	}
}

// BenchmarkE14Serving is the multicore scale-out experiment: the same
// model served with Replicas = GOMAXPROCS = {1, 2, 4, 8}, driven by 8
// closed-loop clients per replica, with the dispatch model above charged
// per batch. Each replica is an independent batcher + pilot instance
// behind the least-loaded router, so req/s must grow near-linearly in
// the replica count until cores (or the router) saturate; flat rows
// would mean the shards serialize on shared state. The cpu/ rows drop
// the dispatch model and measure the raw scalar kernels.
func BenchmarkE14Serving(b *testing.B) {
	const (
		servingW, servingH = 24, 16
		servingModel       = "student"
	)
	cfg := pilot.DefaultConfig(pilot.Linear, servingW, servingH, 1)
	p, err := pilot.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := p.Save(&ckpt); err != nil {
		b.Fatal(err)
	}
	frame, err := sim.NewFrame(servingW, servingH, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for i := range frame.Pix {
		frame.Pix[i] = uint8(rng.Intn(256))
	}
	sample := pilot.Sample{Frames: []*sim.Frame{frame}}

	for _, n := range []int{1, 2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("procs%d", n), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(n)
			defer runtime.GOMAXPROCS(prev)
			svc := e14Serve(b, n, ckpt.Bytes(), servingModel, true)
			e14Drive(b, svc, servingModel, sample, 8*n)
		})
	}
	for _, n := range []int{1, 8} {
		n := n
		b.Run(fmt.Sprintf("cpu/procs%d", n), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(n)
			defer runtime.GOMAXPROCS(prev)
			svc := e14Serve(b, n, ckpt.Bytes(), servingModel, false)
			e14Drive(b, svc, servingModel, sample, 8*n)
		})
	}
}

// --------------------------------------------------------------- E15 ----

// e15Series is one E15 run distilled: the per-round validation losses,
// the total bytes billed on the links, and the 1-indexed first round at
// which the cloud partition is in force (0 for the clean control).
type e15Series struct {
	losses          []float64
	bytes           int64
	partitionedFrom int
}

// e15Converge is the convergence round count: the first round whose
// validation loss is already within 2% of the run's own final loss. A
// topology that spreads updates faster reaches its endpoint earlier.
func e15Converge(losses []float64) int {
	final := losses[len(losses)-1]
	for i, l := range losses {
		if l <= final*1.02 {
			return i + 1
		}
	}
	return len(losses)
}

// e15Survived reports whether the run kept making progress once the
// cloud link died: the final loss must beat the loss at the last clean
// round. The star topology funnels every byte through the dead link, so
// its loss series freezes bit-for-bit and this reads 0; the gossip
// overlay keeps converging peer-to-peer and reads 1. Clean-control runs
// trivially report 1.
func e15Survived(s e15Series) float64 {
	if s.partitionedFrom <= 0 || s.partitionedFrom > len(s.losses) {
		return 1
	}
	lastClean := s.losses[s.partitionedFrom-2]
	if s.losses[len(s.losses)-1] < lastClean {
		return 1
	}
	return 0
}

// e15Run executes one topology under one scenario file ("" = fault-free)
// and returns the loss series. Both topologies share the fleet shape,
// dataset, seed, and 15s round gap, so with cloud-partition.scn the WAN
// dies at 40s — after round 3, before round 4 — for both.
func e15Run(tb testing.TB, topology, scn string) e15Series {
	tb.Helper()
	pcfg := pilot.DefaultConfig(pilot.Linear, 24, 16, 1)
	pcfg.ConvFilters1, pcfg.ConvFilters2, pcfg.DenseUnits = 4, 8, 16
	samples := e11Samples(tb, pcfg, 220)
	val := samples[180:]
	shards, err := fed.ShardSamples(samples[:180], 4)
	if err != nil {
		tb.Fatal(err)
	}
	global, err := pilot.New(pcfg)
	if err != nil {
		tb.Fatal(err)
	}

	const seed = 15
	net := netem.NewNet(seed)
	var rt *scenario.Runtime
	var plan *faults.Plan
	partFrom := 0
	if scn != "" {
		s, err := scenario.Load(scn)
		if err != nil {
			tb.Fatal(err)
		}
		rt, err = scenario.NewRuntime(s, seed, benchEpoch)
		if err != nil {
			tb.Fatal(err)
		}
		rt.Start(obs.Observer{})
		rt.Attach(net)
		plan = rt.Plan()
		partFrom = 4 // 40s partition onset lands between rounds 3 and 4
	}

	out := e15Series{partitionedFrom: partFrom}
	switch topology {
	case "star":
		cfg := fed.DefaultConfig()
		cfg.Workers, cfg.Rounds = 4, 6
		cfg.LocalEpochs, cfg.BatchSize = 2, 16
		cfg.Seed = seed
		cfg.RoundGap = 15 * time.Second
		deps := fed.Deps{Net: net, Hub: edge.NewHub(), Store: objstore.New(), Plan: plan, Start: benchEpoch}
		r, err := fed.NewRun(cfg, deps, global, shards, val)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := r.Execute()
		if err != nil {
			tb.Fatal(err)
		}
		for _, rr := range res.Rounds {
			out.losses = append(out.losses, rr.ValLoss)
		}
		out.bytes = res.TotalBytes
	case "gossip":
		cfg := gossip.DefaultConfig()
		cfg.Workers, cfg.Rounds = 4, 6
		cfg.LocalEpochs, cfg.BatchSize = 2, 16
		cfg.Seed = seed
		cfg.RoundGap = 15 * time.Second
		deps := gossip.Deps{Net: net, Hub: edge.NewHub(), Store: objstore.New(), Plan: plan, Start: benchEpoch}
		r, err := gossip.NewRun(cfg, deps, global, shards, val)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := r.Execute()
		if err != nil {
			tb.Fatal(err)
		}
		for _, rr := range res.Rounds {
			out.losses = append(out.losses, rr.FleetValLoss)
		}
		out.bytes = res.TotalBytes
	default:
		tb.Fatalf("e15: unknown topology %q", topology)
	}
	if rt != nil {
		rt.Clock().Advance(2 * time.Hour)
		rt.Finish()
	}
	return out
}

// BenchmarkE15Gossip is the dissemination-topology experiment: star
// FedAvg versus the decentralized gossip overlay, fault-free and under
// scenarios/cloud-partition.scn. Gossip pays more bytes on the wire
// (push-pull digests plus parcel replication along every mesh edge) to
// buy partition tolerance: on the clean control both topologies converge
// to the same neighborhood, and under the partition the star's loss
// series freezes (partition_survived 0) while gossip keeps descending
// among reachable peers (partition_survived 1).
func BenchmarkE15Gossip(b *testing.B) { benchModelled(b, e15Rows()) }

// e15Rows are E15's rows: each topology fault-free and under
// scenarios/cloud-partition.scn.
func e15Rows() []modelledRow {
	var rows []modelledRow
	for _, scn := range []string{"", "scenarios/cloud-partition.scn"} {
		for _, topology := range []string{"star", "gossip"} {
			name := topology + "/clean"
			if scn != "" {
				name = topology + "/cloud-partition"
			}
			rows = append(rows, modelledRow{name, func(tb testing.TB) []metric {
				s := e15Run(tb, topology, scn)
				return []metric{
					{"bytes_on_wire", float64(s.bytes)},
					{"rounds_to_converge", float64(e15Converge(s.losses))},
					{"partition_survived", e15Survived(s)},
					{"final_valloss", s.losses[len(s.losses)-1]},
				}
			}})
		}
	}
	return rows
}
