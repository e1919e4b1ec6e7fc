package sim

import (
	"fmt"
	"math"
)

// CarConfig holds the physical parameters of the small-scale car. Defaults
// match a 1/16-scale DonkeyCar kit like the Waveshare PiRacer the paper
// recommends.
type CarConfig struct {
	Wheelbase   float64 // meters between axles
	MaxSteer    float64 // radians of wheel angle at full steering input
	MaxSpeed    float64 // m/s at full throttle
	MaxAccel    float64 // m/s^2 at full throttle from rest
	Drag        float64 // 1/s velocity damping coefficient
	BrakeAccel  float64 // m/s^2 deceleration at full reverse throttle
	SteerLag    float64 // first-order steering servo lag time constant (s); 0 = instant
	ThrottleLag float64 // first-order ESC lag time constant (s); 0 = instant
}

// DefaultCarConfig returns parameters for a stock DonkeyCar-class vehicle.
func DefaultCarConfig() CarConfig {
	return CarConfig{
		Wheelbase:   0.25,
		MaxSteer:    25 * math.Pi / 180,
		MaxSpeed:    3.0,
		MaxAccel:    2.0,
		Drag:        0.6,
		BrakeAccel:  4.0,
		SteerLag:    0.08,
		ThrottleLag: 0.15,
	}
}

// Validate reports whether the configuration is physically sensible.
func (c CarConfig) Validate() error {
	switch {
	case c.Wheelbase <= 0:
		return fmt.Errorf("sim: wheelbase must be positive")
	case c.MaxSteer <= 0 || c.MaxSteer >= math.Pi/2:
		return fmt.Errorf("sim: max steer must be in (0, pi/2)")
	case c.MaxSpeed <= 0:
		return fmt.Errorf("sim: max speed must be positive")
	case c.MaxAccel <= 0:
		return fmt.Errorf("sim: max accel must be positive")
	case c.Drag < 0 || c.SteerLag < 0 || c.ThrottleLag < 0:
		return fmt.Errorf("sim: drag and lags must be non-negative")
	}
	return nil
}

// CarState is the full kinematic state of the car on the ground plane.
type CarState struct {
	X, Y    float64 // position, meters
	Heading float64 // radians, CCW from +x
	Speed   float64 // m/s, always >= 0 (no reverse driving in the module)

	// Actuator states (after servo/ESC lag), in normalized units.
	SteerActual    float64 // [-1, 1]
	ThrottleActual float64 // [-1, 1]
}

// Car integrates the kinematic bicycle model with first-order actuator lag.
type Car struct {
	Cfg   CarConfig
	State CarState
}

// NewCar builds a car with a validated config, parked at the origin.
func NewCar(cfg CarConfig) (*Car, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Car{Cfg: cfg}, nil
}

// Reset places the car at a pose with zero speed and neutral actuators.
func (c *Car) Reset(x, y, heading float64) {
	c.State = CarState{X: x, Y: y, Heading: heading}
}

// clamp limits v to [-1, 1].
func clamp1(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// Step advances the car by dt seconds under normalized steering and
// throttle commands in [-1, 1]. Positive steering turns left. Negative
// throttle brakes (the module never drives in reverse).
func (c *Car) Step(steering, throttle, dt float64) {
	if dt <= 0 {
		return
	}
	steering = clamp1(steering)
	throttle = clamp1(throttle)
	s := &c.State

	// First-order actuator lag: actual moves toward commanded.
	if c.Cfg.SteerLag > 0 {
		alpha := 1 - math.Exp(-dt/c.Cfg.SteerLag)
		s.SteerActual += (steering - s.SteerActual) * alpha
	} else {
		s.SteerActual = steering
	}
	if c.Cfg.ThrottleLag > 0 {
		alpha := 1 - math.Exp(-dt/c.Cfg.ThrottleLag)
		s.ThrottleActual += (throttle - s.ThrottleActual) * alpha
	} else {
		s.ThrottleActual = throttle
	}

	// Longitudinal dynamics.
	var accel float64
	if s.ThrottleActual >= 0 {
		accel = s.ThrottleActual * c.Cfg.MaxAccel
	} else {
		accel = s.ThrottleActual * c.Cfg.BrakeAccel
	}
	accel -= c.Cfg.Drag * s.Speed
	s.Speed += accel * dt
	if s.Speed < 0 {
		s.Speed = 0
	}
	if s.Speed > c.Cfg.MaxSpeed {
		s.Speed = c.Cfg.MaxSpeed
	}

	// Kinematic bicycle steering.
	delta := s.SteerActual * c.Cfg.MaxSteer
	s.Heading += s.Speed / c.Cfg.Wheelbase * math.Tan(delta) * dt
	s.Heading = math.Atan2(math.Sin(s.Heading), math.Cos(s.Heading))

	s.X += s.Speed * math.Cos(s.Heading) * dt
	s.Y += s.Speed * math.Sin(s.Heading) * dt
}
