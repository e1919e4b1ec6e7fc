// Package cv implements the classical computer-vision extension the
// paper's "Training Additional Models" section proposes as a student
// exercise: an edge-detection line follower ("camera used to identify the
// edge of the track or a center line and keep the car following that").
package cv

import "repro/internal/sim"

// LineFollower steers from raw pixels with no learning at all: it finds
// the horizontal centroid of tape-colored pixels in a lower band of the
// image and applies a P-controller — the edge-detection/line-following
// exercise, and a useful non-ML baseline for the six trained pilots.
type LineFollower struct {
	// BandTop/BandBottom bound the image rows scanned, as fractions of H.
	BandTop, BandBottom float64
	// Gain converts normalized centroid offset to steering.
	Gain float64
	// Throttle is the constant drive power.
	Throttle float64
	// Threshold is the minimum brightness (gray) or red-channel value for
	// a pixel to count as tape.
	Threshold uint8
}

// NewLineFollower returns a tuned follower for the synthetic tape tracks.
func NewLineFollower() *LineFollower {
	return &LineFollower{BandTop: 0.55, BandBottom: 0.95, Gain: 2.2, Throttle: 0.45, Threshold: 110}
}

// isTape decides whether a pixel looks like the orange tape.
func (l *LineFollower) isTape(px []uint8, channels int) bool {
	if channels == 3 {
		// Orange: strong red, moderate green, weak blue.
		return px[0] > l.Threshold && int(px[0]) > int(px[2])+40
	}
	return px[0] > l.Threshold
}

// DriveFrame implements sim.FrameDriver.
func (l *LineFollower) DriveFrame(f *sim.Frame, _ sim.CarState) (float64, float64) {
	if f == nil || f.W == 0 || f.H == 0 {
		return 0, 0
	}
	top := int(l.BandTop * float64(f.H))
	bottom := int(l.BandBottom * float64(f.H))
	if bottom > f.H {
		bottom = f.H
	}
	var sum, count float64
	for y := top; y < bottom; y++ {
		for x := 0; x < f.W; x++ {
			if l.isTape(f.At(x, y), f.C) {
				sum += float64(x)
				count++
			}
		}
	}
	if count == 0 {
		// Lost the line: creep forward straight.
		return 0, l.Throttle * 0.5
	}
	centroid := sum / count
	// Offset of the tape centroid from image center, normalized to [-1,1].
	offset := (centroid - float64(f.W)/2) / (float64(f.W) / 2)
	steering := l.Gain * offset
	if steering > 1 {
		steering = 1
	} else if steering < -1 {
		steering = -1
	}
	return steering, l.Throttle
}

// Drive implements sim.Driver (no frame: stop).
func (l *LineFollower) Drive(sim.CarState) (float64, float64) { return 0, 0 }
