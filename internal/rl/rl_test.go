package rl

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/track"
)

func agentFixture(t testing.TB, cfg Config) *Agent {
	t.Helper()
	trk, err := track.DefaultOval()
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(cfg, trk, sim.DefaultCarConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Config){
		"few bins":      func(c *Config) { c.LateralBins = 1 },
		"one action":    func(c *Config) { c.Actions = []float64{0} },
		"bad alpha":     func(c *Config) { c.Alpha = 0 },
		"bad gamma":     func(c *Config) { c.Gamma = 1 },
		"no episodes":   func(c *Config) { c.Episodes = 0 },
		"zero throttle": func(c *Config) { c.Throttle = 0 },
		"zero hz":       func(c *Config) { c.Hz = 0 },
	}
	for name, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestNewAgentValidation(t *testing.T) {
	trk, err := track.DefaultOval()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAgent(DefaultConfig(), nil, sim.DefaultCarConfig()); err == nil {
		t.Error("nil track accepted")
	}
	bad := sim.DefaultCarConfig()
	bad.Wheelbase = 0
	if _, err := NewAgent(DefaultConfig(), trk, bad); err == nil {
		t.Error("invalid car accepted")
	}
}

func TestStateDiscretizationInRange(t *testing.T) {
	a := agentFixture(t, DefaultConfig())
	states := a.Cfg.LateralBins * a.Cfg.HeadingBins * a.Cfg.CurvBins
	// Probe many poses; state index must stay in range.
	for i := 0; i < 500; i++ {
		st := sim.CarState{
			X:       float64(i%20)/2 - 3,
			Y:       float64(i%13)/3 - 2,
			Heading: float64(i) * 0.1,
		}
		s := a.stateOf(st)
		if s < 0 || s >= states {
			t.Fatalf("state %d out of [0,%d)", s, states)
		}
	}
}

func TestLearningImproves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Episodes = 220
	cfg.StepsPerEp = 200
	a := agentFixture(t, cfg)
	stats, err := a.Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.EpisodeReturns) != cfg.Episodes {
		t.Fatalf("got %d episode returns", len(stats.EpisodeReturns))
	}
	early := meanOf(stats.EpisodeReturns[:40])
	late := meanOf(stats.EpisodeReturns[len(stats.EpisodeReturns)-40:])
	if late <= early {
		t.Errorf("no learning: early %.2f late %.2f", early, late)
	}
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestTrainedAgentDrives is the extension's acceptance test: the learned
// greedy policy must make meaningful forward progress around the track,
// far more than an untrained agent.
func TestTrainedAgentDrives(t *testing.T) {
	if testing.Short() {
		t.Skip("RL training loop")
	}
	cfg := DefaultConfig()
	a := agentFixture(t, cfg)
	if _, err := a.Train(); err != nil {
		t.Fatal(err)
	}

	progress := func(agent *Agent) float64 {
		trk := agent.trk
		car, err := sim.NewCar(agent.car)
		if err != nil {
			t.Fatal(err)
		}
		x, y, h := trk.StartPose(0)
		car.Reset(x, y, h)
		cl := trk.Centerline
		prev := 0.0
		total := 0.0
		for i := 0; i < 600; i++ {
			s, th := agent.Drive(car.State)
			car.Step(s, th, 0.05)
			proj := cl.Project(track.Point{X: car.State.X, Y: car.State.Y})
			ds := proj.S - prev
			L := cl.Length()
			if ds > L/2 {
				ds -= L
			} else if ds < -L/2 {
				ds += L
			}
			total += ds
			prev = proj.S
			if math.Abs(proj.Lateral) > trk.Width/2+0.1 {
				break // crashed; progress stops here
			}
		}
		return total
	}

	trained := progress(a)
	fresh := agentFixture(t, cfg)
	untrained := progress(fresh)
	if trained < 3.0 {
		t.Errorf("trained agent progressed only %.2f m", trained)
	}
	if trained <= untrained {
		t.Errorf("training did not help: %.2f vs %.2f", trained, untrained)
	}
	t.Logf("progress: trained %.1f m, untrained %.1f m", trained, untrained)
}

func TestDriveOutputsValidCommands(t *testing.T) {
	a := agentFixture(t, DefaultConfig())
	s, th := a.Drive(sim.CarState{})
	if s < -1 || s > 1 || th <= 0 || th > 1 {
		t.Errorf("command (%g, %g)", s, th)
	}
	// Compatible with the simulator session API.
	var _ sim.Driver = a
}
