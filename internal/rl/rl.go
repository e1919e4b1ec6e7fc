// Package rl implements the reinforcement-learning extension the paper
// proposes as an advanced assignment ("or experiment with reinforcement
// learning providing the opportunity for more advanced assignments"): a
// tabular Q-learning lane keeper. The agent observes a discretized
// (lateral offset, heading error, upcoming curvature) state, picks a
// steering action at fixed throttle, and is rewarded for forward progress
// and penalized for straying or crashing. It trains directly against the
// simulator's vehicle dynamics — no camera, matching how students first
// meet RL before adding perception.
package rl

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/track"
)

// Config sets the discretization and learning hyperparameters.
type Config struct {
	// Discretization.
	LateralBins int       // bins over [-Width/2-margin, +Width/2+margin]
	HeadingBins int       // bins over [-pi/2, pi/2] heading error
	CurvBins    int       // bins over upcoming curvature sign/magnitude (3 or 5)
	Actions     []float64 // steering choices

	// Learning.
	Alpha        float64 // learning rate
	Gamma        float64 // discount
	EpsilonStart float64 // initial exploration
	EpsilonEnd   float64
	Episodes     int
	StepsPerEp   int
	Throttle     float64 // fixed drive power
	Hz           float64
	Seed         int64

	// Reward shaping.
	ProgressGain   float64 // reward per meter of forward progress
	LateralPenalty float64 // penalty per meter of |lateral| per step
	CrashPenalty   float64
}

// DefaultConfig returns a configuration that learns the oval in a few
// hundred episodes.
func DefaultConfig() Config {
	return Config{
		LateralBins:    7,
		HeadingBins:    7,
		CurvBins:       3,
		Actions:        []float64{-0.8, -0.4, 0, 0.4, 0.8},
		Alpha:          0.2,
		Gamma:          0.95,
		EpsilonStart:   0.4,
		EpsilonEnd:     0.02,
		Episodes:       300,
		StepsPerEp:     250,
		Throttle:       0.35,
		Hz:             20,
		Seed:           1,
		ProgressGain:   10,
		LateralPenalty: 2,
		CrashPenalty:   50,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LateralBins < 3 || c.HeadingBins < 3 || c.CurvBins < 1 {
		return fmt.Errorf("rl: need >= 3 lateral/heading bins and >= 1 curvature bin")
	}
	if len(c.Actions) < 2 {
		return fmt.Errorf("rl: need >= 2 actions")
	}
	if c.Alpha <= 0 || c.Alpha > 1 || c.Gamma <= 0 || c.Gamma >= 1 {
		return fmt.Errorf("rl: alpha in (0,1], gamma in (0,1)")
	}
	if c.Episodes <= 0 || c.StepsPerEp <= 0 {
		return fmt.Errorf("rl: positive episodes and steps required")
	}
	if c.Throttle <= 0 || c.Throttle > 1 {
		return fmt.Errorf("rl: throttle in (0,1]")
	}
	if c.Hz <= 0 {
		return fmt.Errorf("rl: positive Hz required")
	}
	return nil
}

// Agent is a trained (or training) Q-learning lane keeper.
type Agent struct {
	Cfg Config
	Q   []float64 // [state][action] flattened

	trk *track.Track
	car sim.CarConfig
}

// NewAgent builds an untrained agent for a track and car.
func NewAgent(cfg Config, trk *track.Track, car sim.CarConfig) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if trk == nil {
		return nil, fmt.Errorf("rl: nil track")
	}
	if err := car.Validate(); err != nil {
		return nil, err
	}
	states := cfg.LateralBins * cfg.HeadingBins * cfg.CurvBins
	return &Agent{
		Cfg: cfg,
		Q:   make([]float64, states*len(cfg.Actions)),
		trk: trk,
		car: car,
	}, nil
}

// stateOf discretizes the car's situation.
func (a *Agent) stateOf(st sim.CarState) int {
	cl := a.trk.Centerline
	proj := cl.Project(track.Point{X: st.X, Y: st.Y})
	halfW := a.trk.Width/2 + 0.1

	// Lateral bin.
	lb := binOf(proj.Lateral, -halfW, halfW, a.Cfg.LateralBins)

	// Heading error bin: difference between car heading and track tangent.
	herr := st.Heading - cl.HeadingAt(proj.S)
	for herr > math.Pi {
		herr -= 2 * math.Pi
	}
	for herr < -math.Pi {
		herr += 2 * math.Pi
	}
	hb := binOf(herr, -math.Pi/2, math.Pi/2, a.Cfg.HeadingBins)

	// Upcoming curvature bin (lookahead half a meter).
	k := cl.CurvatureAt(proj.S + 0.5)
	var cb int
	switch {
	case a.Cfg.CurvBins == 1:
		cb = 0
	case k > 0.2:
		cb = a.Cfg.CurvBins - 1
	case k < -0.2:
		cb = 0
	default:
		cb = a.Cfg.CurvBins / 2
	}
	return (lb*a.Cfg.HeadingBins+hb)*a.Cfg.CurvBins + cb
}

func binOf(v, lo, hi float64, bins int) int {
	if v <= lo {
		return 0
	}
	if v >= hi {
		return bins - 1
	}
	i := int((v - lo) / (hi - lo) * float64(bins))
	if i >= bins {
		i = bins - 1
	}
	return i
}

func (a *Agent) bestAction(state int) int {
	base := state * len(a.Cfg.Actions)
	best, bi := math.Inf(-1), 0
	for i := 0; i < len(a.Cfg.Actions); i++ {
		if q := a.Q[base+i]; q > best {
			best, bi = q, i
		}
	}
	return bi
}

// TrainStats reports the learning curve.
type TrainStats struct {
	EpisodeReturns []float64
	Crashes        int
}

// Train runs Q-learning episodes on the track. Each episode starts at a
// random arclength with zero speed.
func (a *Agent) Train() (TrainStats, error) {
	rng := rand.New(rand.NewSource(a.Cfg.Seed))
	dt := 1.0 / a.Cfg.Hz
	nActions := len(a.Cfg.Actions)
	halfW := a.trk.Width/2 + 0.1
	stats := TrainStats{}

	for ep := 0; ep < a.Cfg.Episodes; ep++ {
		frac := float64(ep) / math.Max(1, float64(a.Cfg.Episodes-1))
		eps := a.Cfg.EpsilonStart + (a.Cfg.EpsilonEnd-a.Cfg.EpsilonStart)*frac
		car, err := sim.NewCar(a.car)
		if err != nil {
			return stats, err
		}
		s0 := rng.Float64() * a.trk.Centerline.Length()
		x, y, h := a.trk.StartPose(s0)
		car.Reset(x, y, h)
		prevS := s0
		var epReturn float64

		state := a.stateOf(car.State)
		for step := 0; step < a.Cfg.StepsPerEp; step++ {
			var action int
			if rng.Float64() < eps {
				action = rng.Intn(nActions)
			} else {
				action = a.bestAction(state)
			}
			car.Step(a.Cfg.Actions[action], a.Cfg.Throttle, dt)

			proj := a.trk.Centerline.Project(track.Point{X: car.State.X, Y: car.State.Y})
			ds := proj.S - prevS
			L := a.trk.Centerline.Length()
			if ds > L/2 {
				ds -= L
			} else if ds < -L/2 {
				ds += L
			}
			prevS = proj.S

			reward := a.Cfg.ProgressGain*ds - a.Cfg.LateralPenalty*math.Abs(proj.Lateral)*dt
			done := false
			if math.Abs(proj.Lateral) > halfW {
				reward -= a.Cfg.CrashPenalty
				stats.Crashes++
				done = true
			}
			next := a.stateOf(car.State)

			// Q update.
			base := state*nActions + action
			target := reward
			if !done {
				target += a.Cfg.Gamma * a.Q[next*nActions+a.bestAction(next)]
			}
			a.Q[base] += a.Cfg.Alpha * (target - a.Q[base])
			epReturn += reward
			state = next
			if done {
				break
			}
		}
		stats.EpisodeReturns = append(stats.EpisodeReturns, epReturn)
	}
	return stats, nil
}

// Drive implements sim.Driver with the greedy learned policy.
func (a *Agent) Drive(st sim.CarState) (float64, float64) {
	return a.Cfg.Actions[a.bestAction(a.stateOf(st))], a.Cfg.Throttle
}
