package cv

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/track"
)

func TestLineFollowerSteersTowardLine(t *testing.T) {
	lf := NewLineFollower()
	// Bright line on the right half of a gray frame.
	f, _ := sim.NewFrame(40, 30, 1)
	for i := range f.Pix {
		f.Pix[i] = 60
	}
	for y := 20; y < 29; y++ {
		for x := 30; x < 34; x++ {
			f.Set(x, y, 255)
		}
	}
	s, th := lf.DriveFrame(f, sim.CarState{})
	if s <= 0 {
		t.Errorf("line on the right should steer right-positive offset, got %g", s)
	}
	if th != lf.Throttle {
		t.Errorf("throttle %g", th)
	}
}

func TestLineFollowerLostLineCreeps(t *testing.T) {
	lf := NewLineFollower()
	f, _ := sim.NewFrame(40, 30, 1) // all black
	s, th := lf.DriveFrame(f, sim.CarState{})
	if s != 0 || th <= 0 || th >= lf.Throttle {
		t.Errorf("lost line: (%g, %g)", s, th)
	}
	if s, th := lf.DriveFrame(nil, sim.CarState{}); s != 0 || th != 0 {
		t.Error("nil frame should stop")
	}
}

// TestLineFollowerDrivesOval is the non-ML baseline end-to-end: pure pixel
// processing must make progress around the real rendered track.
func TestLineFollowerDrivesOval(t *testing.T) {
	trk, err := track.DefaultOval()
	if err != nil {
		t.Fatal(err)
	}
	camCfg := sim.SmallCameraConfig()
	cam, err := sim.NewCamera(camCfg, trk)
	if err != nil {
		t.Fatal(err)
	}
	car, err := sim.NewCar(sim.DefaultCarConfig())
	if err != nil {
		t.Fatal(err)
	}
	ses, err := sim.NewSession(sim.SessionConfig{Hz: 20, MaxTicks: 1200, OffTrackMargin: 0.3, ResetOnCrash: true},
		car, cam, NewLineFollower())
	if err != nil {
		t.Fatal(err)
	}
	res := ses.Run(time.Unix(1_700_000_000, 0))
	if res.MeanSpeed < 0.2 {
		t.Errorf("line follower barely moved: %g m/s", res.MeanSpeed)
	}
}
