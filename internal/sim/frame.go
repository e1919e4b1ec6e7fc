// Package sim is the driving simulator that stands in for both the physical
// DonkeyCar and the Unity simulator used by the paper: a kinematic bicycle
// car model, a synthetic ground-plane camera, pure-pursuit "human" drivers
// with injectable mistakes, and drive sessions that emit labeled records.
package sim

import "fmt"

// Frame is an interleaved 8-bit image, C channels per pixel (C=1 grayscale
// or C=3 RGB). DonkeyCar's native camera is 160x120 RGB; tests typically use
// smaller frames for speed.
type Frame struct {
	W, H, C int
	Pix     []uint8 // len == W*H*C, row-major, interleaved channels
}

// NewFrame allocates a zeroed frame.
func NewFrame(w, h, c int) (*Frame, error) {
	if w <= 0 || h <= 0 || (c != 1 && c != 3) {
		return nil, fmt.Errorf("sim: invalid frame dims %dx%dx%d", w, h, c)
	}
	return &Frame{W: w, H: h, C: c, Pix: make([]uint8, w*h*c)}, nil
}

// At returns the channel values at pixel (x, y). The returned slice aliases
// the frame's storage.
func (f *Frame) At(x, y int) []uint8 {
	i := (y*f.W + x) * f.C
	return f.Pix[i : i+f.C]
}

// Set writes channel values at pixel (x, y).
func (f *Frame) Set(x, y int, v ...uint8) {
	i := (y*f.W + x) * f.C
	copy(f.Pix[i:i+f.C], v)
}

// MeanAbsDiff returns the mean absolute per-pixel difference between two
// frames of identical shape, in [0, 255]. Used by the digital-twin module
// to compare simulated and "real" camera streams.
func (f *Frame) MeanAbsDiff(g *Frame) (float64, error) {
	if f.W != g.W || f.H != g.H || f.C != g.C {
		return 0, fmt.Errorf("sim: frame shape mismatch %dx%dx%d vs %dx%dx%d",
			f.W, f.H, f.C, g.W, g.H, g.C)
	}
	var sum float64
	for i := range f.Pix {
		d := int(f.Pix[i]) - int(g.Pix[i])
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum / float64(len(f.Pix)), nil
}

// FlipH returns a horizontally mirrored copy of the frame, used by the
// steering-negation data augmentation.
func (f *Frame) FlipH() *Frame {
	out := &Frame{W: f.W, H: f.H, C: f.C, Pix: make([]uint8, len(f.Pix))}
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			src := (y*f.W + x) * f.C
			dst := (y*f.W + (f.W - 1 - x)) * f.C
			copy(out.Pix[dst:dst+f.C], f.Pix[src:src+f.C])
		}
	}
	return out
}
