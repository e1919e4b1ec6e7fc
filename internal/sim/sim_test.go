package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/track"
)

func testTrack(t testing.TB) *track.Track {
	t.Helper()
	trk, err := track.DefaultOval()
	if err != nil {
		t.Fatal(err)
	}
	return trk
}

func testCamera(t testing.TB, trk *track.Track) *Camera {
	t.Helper()
	cam, err := NewCamera(SmallCameraConfig(), trk)
	if err != nil {
		t.Fatal(err)
	}
	return cam
}

func TestFrameBasics(t *testing.T) {
	f, err := NewFrame(4, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	f.Set(1, 2, 10, 20, 30)
	got := f.At(1, 2)
	if got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("At = %v", got)
	}
}

func TestNewFrameRejectsBadDims(t *testing.T) {
	for _, tc := range [][3]int{{0, 1, 1}, {1, 0, 3}, {1, 1, 2}, {-1, 4, 3}} {
		if _, err := NewFrame(tc[0], tc[1], tc[2]); err == nil {
			t.Errorf("NewFrame(%v) succeeded, want error", tc)
		}
	}
}

func TestMeanAbsDiff(t *testing.T) {
	a, _ := NewFrame(2, 2, 1)
	b, _ := NewFrame(2, 2, 1)
	b.Pix[0] = 4
	d, err := a.MeanAbsDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1.0 {
		t.Errorf("diff = %g, want 1", d)
	}
	c, _ := NewFrame(3, 2, 1)
	if _, err := a.MeanAbsDiff(c); err == nil {
		t.Error("expected shape mismatch error")
	}
}

func TestCarConfigValidate(t *testing.T) {
	good := DefaultCarConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Wheelbase = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero wheelbase accepted")
	}
	bad = good
	bad.MaxSteer = math.Pi
	if err := bad.Validate(); err == nil {
		t.Error("absurd steering accepted")
	}
}

func TestCarAcceleratesStraight(t *testing.T) {
	car, err := NewCar(DefaultCarConfig())
	if err != nil {
		t.Fatal(err)
	}
	car.Reset(0, 0, 0)
	for i := 0; i < 200; i++ {
		car.Step(0, 1, 0.05)
	}
	st := car.State
	if st.Speed <= 0.5 {
		t.Errorf("speed after 10s full throttle = %g", st.Speed)
	}
	if st.X <= 1 {
		t.Errorf("car barely moved: x=%g", st.X)
	}
	if math.Abs(st.Y) > 1e-6 {
		t.Errorf("straight drive drifted laterally: y=%g", st.Y)
	}
	// Steady state at full throttle: MaxAccel == Drag*v, capped at MaxSpeed.
	top := math.Min(car.Cfg.MaxAccel/car.Cfg.Drag, car.Cfg.MaxSpeed)
	if math.Abs(st.Speed-top) > 0.1 {
		t.Errorf("speed %g did not converge to top speed %g", st.Speed, top)
	}
}

func TestCarTurnsLeftWithPositiveSteering(t *testing.T) {
	car, _ := NewCar(DefaultCarConfig())
	car.Reset(0, 0, 0)
	for i := 0; i < 100; i++ {
		car.Step(1, 0.5, 0.05)
	}
	if car.State.Heading <= 0 && car.State.Y <= 0 {
		t.Errorf("positive steering did not turn left: heading=%g y=%g",
			car.State.Heading, car.State.Y)
	}
}

func TestCarBrakes(t *testing.T) {
	car, _ := NewCar(DefaultCarConfig())
	car.Reset(0, 0, 0)
	for i := 0; i < 100; i++ {
		car.Step(0, 1, 0.05)
	}
	v := car.State.Speed
	for i := 0; i < 100; i++ {
		car.Step(0, -1, 0.05)
	}
	if car.State.Speed >= v {
		t.Errorf("braking did not slow car: %g -> %g", v, car.State.Speed)
	}
	if car.State.Speed < 0 {
		t.Error("speed went negative")
	}
}

func TestCarNeverReverses(t *testing.T) {
	car, _ := NewCar(DefaultCarConfig())
	f := func(st, th uint8) bool {
		steering := float64(st)/127.5 - 1
		throttle := float64(th)/127.5 - 1
		car.Step(steering, throttle, 0.05)
		return car.State.Speed >= 0 && car.State.Speed <= car.Cfg.MaxSpeed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMinTurnRadiusFitsTrack(t *testing.T) {
	car, _ := NewCar(DefaultCarConfig())
	// The oval's end radius is 0.85 m; the car must be able to turn tighter.
	if r := car.Cfg.Wheelbase / math.Tan(car.Cfg.MaxSteer); r >= 0.85 {
		t.Errorf("min turn radius %g too large for the default oval", r)
	}
}

func TestCameraRendersTapeAndSky(t *testing.T) {
	trk := testTrack(t)
	cam := testCamera(t, trk)
	x, y, h := trk.StartPose(0)
	f := cam.Render(CarState{X: x, Y: y, Heading: h})
	// Count distinct-ish pixel intensities; the view from the centerline must
	// contain floor, tape, and (with default pitch) possibly sky.
	hist := map[uint8]int{}
	for _, p := range f.Pix {
		hist[p]++
	}
	if len(hist) < 3 {
		t.Errorf("render too uniform: %d distinct values", len(hist))
	}
}

func TestCameraSeesTapeMoveWithSteering(t *testing.T) {
	trk := testTrack(t)
	cam := testCamera(t, trk)
	x, y, h := trk.StartPose(0.5)
	center := cam.Render(CarState{X: x, Y: y, Heading: h})
	rotated := cam.Render(CarState{X: x, Y: y, Heading: h + 0.3})
	d, err := center.MeanAbsDiff(rotated)
	if err != nil {
		t.Fatal(err)
	}
	if d < 1 {
		t.Errorf("rotating the car barely changed the image (diff %g)", d)
	}
}

func TestCameraValidation(t *testing.T) {
	trk := testTrack(t)
	bad := DefaultCameraConfig()
	bad.Channels = 2
	if _, err := NewCamera(bad, trk); err == nil {
		t.Error("2-channel camera accepted")
	}
	if _, err := NewCamera(DefaultCameraConfig(), nil); err == nil {
		t.Error("nil track accepted")
	}
}

func TestRenderIntoReusesBuffer(t *testing.T) {
	trk := testTrack(t)
	cam := testCamera(t, trk)
	f, err := NewFrame(cam.Cfg.Width, cam.Cfg.Height, cam.Cfg.Channels)
	if err != nil {
		t.Fatal(err)
	}
	x, y, h := trk.StartPose(0)
	cam.RenderInto(CarState{X: x, Y: y, Heading: h}, f)
	sum := 0
	for _, p := range f.Pix {
		sum += int(p)
	}
	if sum == 0 {
		t.Error("RenderInto left the buffer black")
	}
}

func TestPurePursuitFollowsOval(t *testing.T) {
	trk := testTrack(t)
	car, _ := NewCar(DefaultCarConfig())
	pp := NewPurePursuit(trk, car.Cfg)
	x, y, h := trk.StartPose(0)
	car.Reset(x, y, h)
	maxLat := 0.0
	for i := 0; i < 1200; i++ {
		steering, throttle := pp.Drive(car.State)
		car.Step(steering, throttle, 0.05)
		proj := trk.Centerline.Project(track.Point{X: car.State.X, Y: car.State.Y})
		if a := math.Abs(proj.Lateral); a > maxLat {
			maxLat = a
		}
	}
	if maxLat > trk.Width/2 {
		t.Errorf("pure pursuit left the lane: max lateral %g > %g", maxLat, trk.Width/2)
	}
}

func TestPurePursuitFixedThrottle(t *testing.T) {
	trk := testTrack(t)
	pp := NewPurePursuit(trk, DefaultCarConfig())
	pp.FixedThrottle = 0.42
	_, th := pp.Drive(CarState{})
	if th != 0.42 {
		t.Errorf("fixed throttle = %g, want 0.42", th)
	}
}

func TestWebController(t *testing.T) {
	w := NewWebController()
	s, th := w.Drive(CarState{})
	if s != 0 || th != 0 {
		t.Error("idle controller should output zeros")
	}
	w.Update(0.5, 2.0) // throttle should clamp
	s, th = w.Drive(CarState{})
	if s != 0.5 || th != 1.0 {
		t.Errorf("got (%g, %g), want (0.5, 1)", s, th)
	}
	w.SetConstantThrottle(0.3)
	_, th = w.Drive(CarState{})
	if th != 0.3 {
		t.Errorf("constant throttle mode gave %g", th)
	}
}

func TestHumanDriverDeterministic(t *testing.T) {
	trk := testTrack(t)
	mk := func() *HumanDriver {
		return NewHumanDriver(NewPurePursuit(trk, DefaultCarConfig()), 42, 20)
	}
	a, b := mk(), mk()
	st := CarState{X: 0.1, Y: 0.05}
	for i := 0; i < 50; i++ {
		as, at := a.Drive(st)
		bs, bt := b.Drive(st)
		if as != bs || at != bt {
			t.Fatalf("tick %d diverged: (%g,%g) vs (%g,%g)", i, as, at, bs, bt)
		}
	}
}

func TestHumanDriverMakesMistakes(t *testing.T) {
	trk := testTrack(t)
	h := NewHumanDriver(NewPurePursuit(trk, DefaultCarConfig()), 1, 20)
	h.MistakeRate = 2.0 // force frequent mistakes
	saw := false
	st := CarState{}
	for i := 0; i < 400; i++ {
		h.Drive(st)
		if h.InMistake() {
			saw = true
			break
		}
	}
	if !saw {
		t.Error("no mistake in 400 ticks at rate 2/s")
	}
}

func sessionFixture(t testing.TB, drv func(trk *track.Track, car *Car) Driver, cfg SessionConfig) SessionResult {
	t.Helper()
	trk := testTrack(t)
	car, err := NewCar(DefaultCarConfig())
	if err != nil {
		t.Fatal(err)
	}
	cam := testCamera(t, trk)
	ses, err := NewSession(cfg, car, cam, drv(trk, car))
	if err != nil {
		t.Fatal(err)
	}
	return ses.Run(time.Unix(1_700_000_000, 0))
}

func TestSessionExpertCompletesLaps(t *testing.T) {
	cfg := DefaultSessionConfig()
	cfg.MaxTicks = 3000
	res := sessionFixture(t, func(trk *track.Track, car *Car) Driver {
		return NewPurePursuit(trk, car.Cfg)
	}, cfg)
	if res.Laps < 2 {
		t.Errorf("expert completed %d laps in 150s, want >= 2", res.Laps)
	}
	if res.Crashes != 0 {
		t.Errorf("expert crashed %d times", res.Crashes)
	}
	if len(res.Records) != res.Ticks {
		t.Errorf("records %d != ticks %d", len(res.Records), res.Ticks)
	}
	if res.MeanSpeed <= 0.3 {
		t.Errorf("mean speed %g too low", res.MeanSpeed)
	}
}

func TestSessionHumanProducesBadRecords(t *testing.T) {
	cfg := DefaultSessionConfig()
	cfg.MaxTicks = 2000
	res := sessionFixture(t, func(trk *track.Track, car *Car) Driver {
		h := NewHumanDriver(NewPurePursuit(trk, car.Cfg), 7, cfg.Hz)
		h.MistakeRate = 0.4
		return h
	}, cfg)
	if res.BadCount == 0 {
		t.Error("noisy human produced no bad records")
	}
	if res.BadCount >= len(res.Records) {
		t.Error("all records bad; mistakes should be intermittent")
	}
}

func TestSessionMaxLapsStops(t *testing.T) {
	cfg := DefaultSessionConfig()
	cfg.MaxTicks = 10000
	cfg.MaxLaps = 1
	res := sessionFixture(t, func(trk *track.Track, car *Car) Driver {
		return NewPurePursuit(trk, car.Cfg)
	}, cfg)
	if res.Laps != 1 {
		t.Errorf("laps = %d, want exactly 1", res.Laps)
	}
	if res.Ticks >= 10000 {
		t.Error("session did not stop at lap limit")
	}
}

func TestSessionValidation(t *testing.T) {
	trk := testTrack(t)
	car, _ := NewCar(DefaultCarConfig())
	cam := testCamera(t, trk)
	drv := NewPurePursuit(trk, car.Cfg)
	if _, err := NewSession(SessionConfig{Hz: 0, MaxTicks: 10}, car, cam, drv); err == nil {
		t.Error("zero Hz accepted")
	}
	if _, err := NewSession(SessionConfig{Hz: 20}, car, cam, drv); err == nil {
		t.Error("no stop condition accepted")
	}
	if _, err := NewSession(DefaultSessionConfig(), nil, cam, drv); err == nil {
		t.Error("nil car accepted")
	}
}

func TestSessionTimestampsMonotonic(t *testing.T) {
	cfg := DefaultSessionConfig()
	cfg.MaxTicks = 100
	res := sessionFixture(t, func(trk *track.Track, car *Car) Driver {
		return NewPurePursuit(trk, car.Cfg)
	}, cfg)
	for i := 1; i < len(res.Records); i++ {
		if !res.Records[i].Timestamp.After(res.Records[i-1].Timestamp) {
			t.Fatalf("timestamps not strictly increasing at %d", i)
		}
	}
}

// Property: heading stays normalized to (-pi, pi] and position stays
// finite under arbitrary command sequences.
func TestCarStateInvariantsProperty(t *testing.T) {
	car, err := NewCar(DefaultCarConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(cmds []uint16) bool {
		for _, c := range cmds {
			steering := float64(c%200)/100 - 1
			throttle := float64((c/200)%200)/100 - 1
			car.Step(steering, throttle, 0.05)
			st := car.State
			if st.Heading <= -math.Pi-1e-9 || st.Heading > math.Pi+1e-9 {
				return false
			}
			if math.IsNaN(st.X) || math.IsInf(st.X, 0) || math.IsNaN(st.Y) || math.IsInf(st.Y, 0) {
				return false
			}
			if st.SteerActual < -1-1e-9 || st.SteerActual > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: rendering is deterministic — the same pose yields identical
// frames.
func TestCameraDeterministicProperty(t *testing.T) {
	trk := testTrack(t)
	cam := testCamera(t, trk)
	f := func(raw uint16) bool {
		s := float64(raw) / 65535 * trk.Centerline.Length()
		x, y, h := trk.StartPose(s)
		st := CarState{X: x, Y: y, Heading: h}
		a := cam.Render(st)
		b := cam.Render(st)
		d, err := a.MeanAbsDiff(b)
		return err == nil && d == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
