package pilot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/track"
	"repro/internal/tub"
)

const (
	testW = 24
	testH = 16
)

func testCfg(kind Kind) Config {
	c := DefaultConfig(kind, testW, testH, 1)
	c.ConvFilters1 = 4
	c.ConvFilters2 = 8
	c.DenseUnits = 16
	return c
}

// syntheticRecords produces frames whose single bright column encodes the
// steering label, so every architecture has signal to learn.
func syntheticRecords(t testing.TB, n int) []sim.Record {
	t.Helper()
	recs := make([]sim.Record, n)
	for i := 0; i < n; i++ {
		f, err := sim.NewFrame(testW, testH, 1)
		if err != nil {
			t.Fatal(err)
		}
		angle := math.Sin(float64(i) / 5)
		col := int((angle + 1) / 2 * float64(testW-1))
		for y := 0; y < testH; y++ {
			f.Set(col, y, 255)
		}
		recs[i] = sim.Record{
			Index: i, Frame: f,
			Steering: angle, Throttle: 0.5,
			Timestamp: time.Unix(1_700_000_000, 0).Add(time.Duration(i) * 50 * time.Millisecond),
		}
	}
	return recs
}

func TestAllKindsBuildAndInfer(t *testing.T) {
	recs := syntheticRecords(t, 12)
	for _, kind := range AllKinds() {
		cfg := testCfg(kind)
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if p.ParamCount() == 0 {
			t.Errorf("%s: zero parameters", kind)
		}
		samples, err := SamplesFromRecords(cfg, recs)
		if err != nil {
			t.Fatalf("%s: samples: %v", kind, err)
		}
		angle, throttle, err := p.Infer(samples[0])
		if err != nil {
			t.Fatalf("%s: infer: %v", kind, err)
		}
		if angle < -1 || angle > 1 {
			t.Errorf("%s: angle %g out of range", kind, angle)
		}
		if throttle < -1 || throttle > 1 {
			t.Errorf("%s: throttle %g out of range", kind, throttle)
		}
	}
}

func TestAllKindsTrainLossDecreases(t *testing.T) {
	recs := syntheticRecords(t, 60)
	for _, kind := range AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := testCfg(kind)
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			samples, err := SamplesFromRecords(cfg, recs)
			if err != nil {
				t.Fatal(err)
			}
			tc := nn.TrainConfig{Epochs: 4, BatchSize: 16, ValFrac: 0, Seed: 3}
			h, err := p.Train(samples, tc)
			if err != nil {
				t.Fatal(err)
			}
			first := h.Epochs[0].TrainLoss
			last := h.FinalTrainLoss()
			if !(last < first) {
				t.Errorf("%s: loss did not decrease: %g -> %g", kind, first, last)
			}
		})
	}
}

func TestInferredThrottleRule(t *testing.T) {
	cfg := testCfg(Inferred)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 3)
	samples, _ := SamplesFromRecords(cfg, recs)
	angle, throttle, err := p.Infer(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.MaxThrottle - (cfg.MaxThrottle-cfg.MinThrottle)*math.Sqrt(math.Abs(angle))
	if math.Abs(throttle-want) > 1e-12 {
		t.Errorf("throttle %g, want %g", throttle, want)
	}
	if throttle < cfg.MinThrottle-1e-9 || throttle > cfg.MaxThrottle+1e-9 {
		t.Errorf("throttle %g outside [%g,%g]", throttle, cfg.MinThrottle, cfg.MaxThrottle)
	}
}

func TestCategoricalOutputsAreBinCenters(t *testing.T) {
	cfg := testCfg(Categorical)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 3)
	samples, _ := SamplesFromRecords(cfg, recs)
	angle, throttle, err := p.Infer(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	// Angle must be one of the 15 bin centers.
	found := false
	for i := 0; i < cfg.AngleBins; i++ {
		if math.Abs(angle-nn.Unbin(i, -1, 1, cfg.AngleBins)) < 1e-12 {
			found = true
		}
	}
	if !found {
		t.Errorf("angle %g is not a bin center", angle)
	}
	if throttle < 0 || throttle > 1 {
		t.Errorf("throttle %g outside [0,1]", throttle)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testCfg(Linear)
	bad.Kind = "nope"
	if _, err := New(bad); err == nil {
		t.Error("unknown kind accepted")
	}
	bad = testCfg(RNN)
	bad.SeqLen = 1
	if _, err := New(bad); err == nil {
		t.Error("SeqLen 1 RNN accepted")
	}
	bad = testCfg(Linear)
	bad.Channels = 2
	if _, err := New(bad); err == nil {
		t.Error("2-channel accepted")
	}
	bad = testCfg(Linear)
	bad.Width = 4
	if _, err := New(bad); err == nil {
		t.Error("tiny image accepted")
	}
	// 12x8 leaves the second 3x3 conv a 2-row input; truncating division
	// sizes that as one output row, which Infer would read past.
	bad = testCfg(Linear)
	bad.Width, bad.Height = 12, 8
	if err := bad.Validate(); err == nil {
		t.Error("12x8 image accepted")
	}
	bad = testCfg(Linear)
	bad.MaxThrottle = 0.1
	bad.MinThrottle = 0.5
	if _, err := New(bad); err == nil {
		t.Error("inverted throttle bounds accepted")
	}
	// A 1<<20 square camera asks the encoder's dense layer for about
	// 7e13 weights: an error, not a makeslice panic.
	if _, err := New(DefaultConfig(Linear, 1<<20, 1<<20, 1)); err == nil {
		t.Error("1<<20 x 1<<20 camera accepted")
	}
	// E14's largest pilot (128x96, 2048-unit trunk, about 21.6M weights
	// in one tensor) stays under the cap.
	e14 := DefaultConfig(Linear, 128, 96, 1)
	e14.ConvFilters1, e14.ConvFilters2, e14.DenseUnits = 8, 16, 2048
	if err := e14.Validate(); err != nil {
		t.Errorf("E14's 128x96 pilot rejected: %v", err)
	}
}

func TestSamplesFromRecordsWindows(t *testing.T) {
	cfg := testCfg(RNN) // SeqLen 3
	recs := syntheticRecords(t, 10)
	samples, err := SamplesFromRecords(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("got %d samples, want 8", len(samples))
	}
	// Label comes from the last frame in the window.
	if samples[0].Angle != recs[2].Steering {
		t.Error("window label not from last record")
	}
	if len(samples[0].Frames) != 3 {
		t.Errorf("window has %d frames", len(samples[0].Frames))
	}
	if _, err := SamplesFromRecords(cfg, recs[:2]); err == nil {
		t.Error("too-short record list accepted")
	}
}

func TestMemorySamplesCarryHistory(t *testing.T) {
	cfg := testCfg(Memory)
	recs := syntheticRecords(t, 8)
	samples, err := SamplesFromRecords(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	// First sample should have zero-padded history.
	if len(samples[0].PrevCmds) != cfg.MemoryLen {
		t.Fatalf("history length %d", len(samples[0].PrevCmds))
	}
	if samples[0].PrevCmds[0][0] != 0 {
		t.Error("missing zero padding at start")
	}
	// A later sample's most recent history entry equals the previous record.
	s := samples[5] // corresponds to record index 5
	if s.PrevCmds[cfg.MemoryLen-1][0] != recs[4].Steering {
		t.Error("history does not track previous record")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := testCfg(Linear)
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 20)
	samples, _ := SamplesFromRecords(cfg, recs)
	if _, err := p1.Train(samples, nn.TrainConfig{Epochs: 2, BatchSize: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Cfg.Kind != Linear || p2.Cfg.Width != testW {
		t.Errorf("config lost: %+v", p2.Cfg)
	}
	a1, t1, err := p1.Infer(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	a2, t2, err := p2.Infer(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || t1 != t2 {
		t.Errorf("loaded pilot differs: (%g,%g) vs (%g,%g)", a1, t1, a2, t2)
	}
}

// TestLoadedPilotTrainsFromCheckpoint follows the resume-after-preemption
// path: a loaded pilot holds no gradient buffers until it trains, and one
// epoch from the loaded weights must land on exactly the weights it did
// when every parameter was built with its gradient.
func TestLoadedPilotTrainsFromCheckpoint(t *testing.T) {
	cfg := testCfg(Inferred)
	cfg.Seed = 7
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, prm := range loaded.Model().Params() {
		if prm.Grad != nil {
			t.Fatalf("loaded param %s holds a gradient buffer before training", prm.Name)
		}
	}
	samples, err := SamplesFromRecords(cfg, syntheticRecords(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Train(samples, nn.TrainConfig{Epochs: 1, BatchSize: 8, ValFrac: 0.25, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, prm := range loaded.Model().Params() {
		for _, v := range prm.W.Data {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	const want = "92b638d10da4d77759fb32ff677c7dba4f8a2895072951d8b9c5afb76b805a5c"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("weights after one epoch from the checkpoint hash to %s, want %s", got, want)
	}
}

// TestLoadRejectsGarbage feeds Load malformed checkpoints, each of which
// must come back as an error, never a panic.
func TestLoadRejectsGarbage(t *testing.T) {
	base := testCfg(Linear)
	p, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	params := paramsOf(p.model)
	save := func(params []*nn.Param, meta map[string]string) []byte {
		var buf bytes.Buffer
		if err := nn.SaveParams(&buf, params, meta); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	config := func(c Config) map[string]string {
		s, err := c.marshal()
		if err != nil {
			t.Fatal(err)
		}
		return map[string]string{"config": s}
	}
	good := save(params, config(base))
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
	// A 12x9 model has the parameter shapes a 12x8 one would, so only
	// config validation can turn the 12x8 checkpoint away.
	small, fits := base, base
	small.Width, small.Height = 12, 8
	fits.Width, fits.Height = 12, 9
	pf, err := New(fits)
	if err != nil {
		t.Fatal(err)
	}
	wider := base
	wider.DenseUnits *= 2
	pw, err := New(wider)
	if err != nil {
		t.Fatal(err)
	}
	var wrongMagic bytes.Buffer
	if err := gob.NewEncoder(&wrongMagic).Encode(struct{ Magic string }{"not-a-checkpoint"}); err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"not gob":         []byte("not a checkpoint"),
		"wrong magic":     wrongMagic.Bytes(),
		"no config":       save(params, map[string]string{"arch": "linear"}),
		"config not json": save(params, map[string]string{"config": "{"}),
		"invalid config":  save(paramsOf(pf.model), config(small)),
		"param count":     save(params[:len(params)-1], config(base)),
		"param size":      save(paramsOf(pw.model), config(base)),
		"huge camera":     save(params, config(DefaultConfig(Linear, 1<<20, 1<<20, 1))),
	}
	for _, n := range []int{0, 1, len(good) / 4, len(good) / 2, len(good) - 1} {
		cases[fmt.Sprintf("truncated at %d", n)] = good[:n]
	}
	for name, blob := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked: %v", r)
				}
			}()
			if _, err := Load(bytes.NewReader(blob)); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// TestLoadAllocations bounds what one Load of the 64x48 inferred
// checkpoint allocates: the fresh model's weights (no gradients until it
// trains), the gob message and its decoded weights come to about 3x the
// parameter bytes, so the 5x limit fails a second decode, a buffered
// copy of the stream or eagerly allocated gradients.
func TestLoadAllocations(t *testing.T) {
	p, err := New(DefaultConfig(Inferred, 64, 48, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	paramBytes := uint64(p.ParamCount()) * 8
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 5*paramBytes {
		t.Errorf("Load allocated %d bytes, %.1fx the %d parameter bytes (limit 5x)",
			least, float64(least)/float64(paramBytes), paramBytes)
	}
}

func TestTubRoundTripToSamples(t *testing.T) {
	dir := t.TempDir()
	tb, err := tub.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tub.NewWriter(tb)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 10)
	for _, r := range recs {
		if _, err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := testCfg(Linear)
	samples, err := SamplesFromTub(cfg, tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("got %d samples", len(samples))
	}
	if math.Abs(samples[3].Angle-recs[3].Steering) > 1e-9 {
		t.Error("labels lost in tub round trip")
	}
}

func TestAutoDriverMaintainsWindow(t *testing.T) {
	cfg := testCfg(RNN)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewAutoDriver(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 6)
	for _, r := range recs {
		angle, throttle := drv.DriveFrame(r.Frame, sim.CarState{})
		if angle < -1 || angle > 1 || throttle < -1 || throttle > 1 {
			t.Fatalf("out-of-range command (%g, %g)", angle, throttle)
		}
	}
	if drv.Err() != nil {
		t.Fatal(drv.Err())
	}
	drv.Reset()
	if drv.Err() != nil {
		t.Fatal("error after reset")
	}
}

func TestAutoDriverThrottleScale(t *testing.T) {
	cfg := testCfg(Inferred)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drv, _ := NewAutoDriver(p)
	recs := syntheticRecords(t, 1)
	_, t1 := drv.DriveFrame(recs[0].Frame, sim.CarState{})
	drv2, _ := NewAutoDriver(p)
	drv2.ThrottleScale = 0.5
	drv2.Reset()
	_, t2 := drv2.DriveFrame(recs[0].Frame, sim.CarState{})
	if math.Abs(t2-t1/2) > 1e-9 {
		t.Errorf("throttle scale: %g vs %g", t1, t2)
	}
}

// TestLinearPilotDrivesOval is the package's end-to-end check: collect
// expert data on the oval, train the linear pilot briefly, and verify the
// autopilot makes meaningful forward progress without leaving the lane
// catastrophically more than the expert.
func TestLinearPilotDrivesOval(t *testing.T) {
	if testing.Short() {
		t.Skip("training loop")
	}
	trk, err := track.DefaultOval()
	if err != nil {
		t.Fatal(err)
	}
	camCfg := sim.CameraConfig{Width: testW, Height: testH, Channels: 1,
		HeightAboveGround: 0.12, Pitch: 18 * math.Pi / 180, HFOV: 2.1}
	cam, err := sim.NewCamera(camCfg, trk)
	if err != nil {
		t.Fatal(err)
	}
	car, err := sim.NewCar(sim.DefaultCarConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Collect expert demonstrations.
	ses, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 1500, OffTrackMargin: 0.1, ResetOnCrash: true},
		car, cam, sim.NewPurePursuit(trk, car.Cfg))
	if err != nil {
		t.Fatal(err)
	}
	res := ses.Run(time.Unix(1_700_000_000, 0))
	cfg := testCfg(Linear)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := SamplesFromRecords(cfg, res.Records)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Train(samples, nn.TrainConfig{Epochs: 8, BatchSize: 32, ValFrac: 0.1, Seed: 2, ClipGrad: 5})
	if err != nil {
		t.Fatal(err)
	}
	if h.BestValLoss > 0.2 {
		t.Logf("warning: val loss %g high", h.BestValLoss)
	}
	// Autonomous evaluation.
	drv, err := NewAutoDriver(p)
	if err != nil {
		t.Fatal(err)
	}
	evalSes, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 800, OffTrackMargin: 0.15, ResetOnCrash: true},
		car, cam, drv)
	if err != nil {
		t.Fatal(err)
	}
	evalRes := evalSes.Run(time.Unix(1_700_000_100, 0))
	if drv.Err() != nil {
		t.Fatal(drv.Err())
	}
	if evalRes.MeanSpeed < 0.1 {
		t.Errorf("autopilot barely moved: mean speed %g", evalRes.MeanSpeed)
	}
	t.Logf("autopilot: laps=%d crashes=%d meanSpeed=%.2f valLoss=%.4f",
		evalRes.Laps, evalRes.Crashes, evalRes.MeanSpeed, h.BestValLoss)
}

func TestBatchNormVariantTrainsAndRoundTrips(t *testing.T) {
	cfg := testCfg(Linear)
	cfg.BatchNorm = true
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 40)
	samples, err := SamplesFromRecords(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p1.Train(samples, nn.TrainConfig{Epochs: 3, BatchSize: 8, ValFrac: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !(h.FinalTrainLoss() < h.Epochs[0].TrainLoss) {
		t.Errorf("BN pilot did not learn: %g -> %g", h.Epochs[0].TrainLoss, h.FinalTrainLoss())
	}
	// Running stats must survive save/load (frozen params).
	var buf bytes.Buffer
	if err := p1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Cfg.BatchNorm {
		t.Error("BatchNorm flag lost")
	}
	a1, t1, err := p1.Infer(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	a2, t2, err := p2.Infer(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || t1 != t2 {
		t.Errorf("BN inference changed after reload: (%g,%g) vs (%g,%g)", a1, t1, a2, t2)
	}
}

func TestDistillShrinksAndLearnsTeacher(t *testing.T) {
	cfg := testCfg(Linear)
	cfg.ConvFilters1, cfg.ConvFilters2, cfg.DenseUnits = 8, 16, 32
	teacher, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 60)
	samples, err := SamplesFromRecords(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := teacher.Train(samples, nn.TrainConfig{Epochs: 4, BatchSize: 16, ValFrac: 0, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	dc := DefaultDistillConfig()
	dc.Shrink = 4
	dc.Train = nn.TrainConfig{Epochs: 6, BatchSize: 16, ValFrac: 0, Seed: 2}
	student, hist, err := Distill(teacher, samples, dc)
	if err != nil {
		t.Fatal(err)
	}
	if student.ParamCount() >= teacher.ParamCount() {
		t.Errorf("student (%d params) not smaller than teacher (%d)",
			student.ParamCount(), teacher.ParamCount())
	}
	if len(hist.Epochs) == 0 {
		t.Fatal("no distillation epochs")
	}
	// Student approximates the teacher on held-in samples.
	var sumDiff float64
	for _, s := range samples[:20] {
		ta, _, err := teacher.Infer(s)
		if err != nil {
			t.Fatal(err)
		}
		sa, _, err := student.Infer(s)
		if err != nil {
			t.Fatal(err)
		}
		sumDiff += math.Abs(ta - sa)
	}
	if mean := sumDiff / 20; mean > 0.3 {
		t.Errorf("student deviates from teacher by %.3f mean angle", mean)
	}
}

func TestDistillValidation(t *testing.T) {
	if _, _, err := Distill(nil, nil, DefaultDistillConfig()); err == nil {
		t.Error("nil teacher accepted")
	}
	cfg := testCfg(Categorical)
	teacher, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := syntheticRecords(t, 5)
	samples, _ := SamplesFromRecords(cfg, recs)
	if _, _, err := Distill(teacher, samples, DefaultDistillConfig()); err == nil {
		t.Error("categorical teacher accepted")
	}
	lin, _ := New(testCfg(Linear))
	if _, _, err := Distill(lin, nil, DefaultDistillConfig()); err == nil {
		t.Error("empty samples accepted")
	}
	bad := DefaultDistillConfig()
	bad.Shrink = 1
	if _, _, err := Distill(lin, samples, bad); err == nil {
		t.Error("shrink 1 accepted")
	}
}

func TestSaveLoadRoundTripAllKinds(t *testing.T) {
	recs := syntheticRecords(t, 12)
	for _, kind := range AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := testCfg(kind)
			p1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			samples, err := SamplesFromRecords(cfg, recs)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := p1.Save(&buf); err != nil {
				t.Fatal(err)
			}
			p2, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if p2.Cfg.Kind != kind {
				t.Fatalf("kind lost: %s", p2.Cfg.Kind)
			}
			a1, t1, err := p1.Infer(samples[0])
			if err != nil {
				t.Fatal(err)
			}
			a2, t2, err := p2.Infer(samples[0])
			if err != nil {
				t.Fatal(err)
			}
			if a1 != a2 || t1 != t2 {
				t.Errorf("reloaded %s differs: (%g,%g) vs (%g,%g)", kind, a1, t1, a2, t2)
			}
		})
	}
}

func TestAugmentFlipMirrorsSteering(t *testing.T) {
	cfg := testCfg(Memory)
	recs := syntheticRecords(t, 8)
	samples, err := SamplesFromRecords(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	aug := AugmentFlip(samples)
	if len(aug) != 2*len(samples) {
		t.Fatalf("augmented %d from %d", len(aug), len(samples))
	}
	orig := aug[0]
	mirror := aug[len(samples)]
	if mirror.Angle != -orig.Angle {
		t.Errorf("angle %g vs mirrored %g", orig.Angle, mirror.Angle)
	}
	if mirror.Throttle != orig.Throttle {
		t.Error("throttle changed by flip")
	}
	if mirror.PrevCmds[0][0] != -orig.PrevCmds[0][0] {
		t.Error("history steering not negated")
	}
	// The mirrored frame is the horizontal flip of the original.
	f := orig.Frames[0]
	g := mirror.Frames[0]
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			if f.At(x, y)[0] != g.At(f.W-1-x, y)[0] {
				t.Fatalf("pixel (%d,%d) not mirrored", x, y)
			}
		}
	}
	// Augmented set still trains.
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(aug, nn.TrainConfig{Epochs: 1, BatchSize: 8, ValFrac: 0, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestNativeResolutionTrains exercises the stack at DonkeyCar's native
// 160x120 RGB geometry — the configuration the paper actually ships — with
// a tiny sample budget so it stays CI-friendly.
func TestNativeResolutionTrains(t *testing.T) {
	if testing.Short() {
		t.Skip("native-resolution training")
	}
	cfg := DefaultConfig(Linear, 160, 120, 3)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.ParamCount() < 100_000 {
		t.Errorf("native model suspiciously small: %d params", p.ParamCount())
	}
	recs := make([]sim.Record, 40)
	for i := range recs {
		f, err := sim.NewFrame(160, 120, 3)
		if err != nil {
			t.Fatal(err)
		}
		angle := math.Sin(float64(i) / 6)
		col := int((angle + 1) / 2 * 159)
		for y := 0; y < 120; y++ {
			f.Set(col, y, 235, 120, 20)
		}
		recs[i] = sim.Record{Frame: f, Steering: angle, Throttle: 0.5,
			Timestamp: time.Unix(1_700_000_000, 0).Add(time.Duration(i) * 50 * time.Millisecond)}
	}
	samples, err := SamplesFromRecords(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Train(samples, nn.TrainConfig{Epochs: 2, BatchSize: 8, ValFrac: 0, Seed: 1, ClipGrad: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !(h.FinalTrainLoss() < h.Epochs[0].TrainLoss) {
		t.Errorf("no learning at native resolution: %g -> %g",
			h.Epochs[0].TrainLoss, h.FinalTrainLoss())
	}
	if _, _, err := p.Infer(samples[0]); err != nil {
		t.Fatal(err)
	}
}
