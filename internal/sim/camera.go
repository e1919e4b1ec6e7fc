package sim

import (
	"fmt"
	"math"

	"repro/internal/track"
)

// CameraConfig describes the forward-facing camera mounted on the car.
// Defaults approximate the wide-angle Raspberry Pi camera DonkeyCar uses.
type CameraConfig struct {
	Width, Height     int     // pixels
	Channels          int     // 1 (gray) or 3 (RGB)
	HeightAboveGround float64 // meters
	Pitch             float64 // radians, positive looks down
	HFOV              float64 // horizontal field of view, radians
}

// DefaultCameraConfig returns the DonkeyCar-native 160x120 RGB setup.
func DefaultCameraConfig() CameraConfig {
	return CameraConfig{
		Width: 160, Height: 120, Channels: 3,
		HeightAboveGround: 0.12,
		Pitch:             18 * math.Pi / 180,
		HFOV:              120 * math.Pi / 180,
	}
}

// SmallCameraConfig returns a reduced 64x48 grayscale setup used by tests
// and fast training runs.
func SmallCameraConfig() CameraConfig {
	c := DefaultCameraConfig()
	c.Width, c.Height, c.Channels = 64, 48, 1
	return c
}

// Validate checks the camera parameters.
func (c CameraConfig) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("sim: camera resolution must be positive")
	case c.Channels != 1 && c.Channels != 3:
		return fmt.Errorf("sim: camera channels must be 1 or 3")
	case c.HeightAboveGround <= 0:
		return fmt.Errorf("sim: camera height must be positive")
	case c.HFOV <= 0 || c.HFOV >= math.Pi:
		return fmt.Errorf("sim: HFOV must be in (0, pi)")
	}
	return nil
}

// Surface colors (RGB). The paper's default track uses orange tape on a
// gray floor.
var (
	colorFloor = [3]uint8{90, 90, 95}
	colorTape  = [3]uint8{235, 120, 20}
	colorSky   = [3]uint8{160, 190, 220}
)

const (
	tapeHalfWidth = 0.025 // meters; ~2 in tape
	tapeGridRes   = 0.01  // meters per occupancy cell
)

// tapeMap is a rasterized occupancy grid of the track's tape lines so the
// renderer can answer "is this ground point on tape?" in O(1).
type tapeMap struct {
	minX, minY float64
	w, h       int
	cells      []bool
}

func buildTapeMap(trk *track.Track) *tapeMap {
	bounds := func(p *track.Path) (minX, minY, maxX, maxY float64) {
		minX, minY = math.Inf(1), math.Inf(1)
		maxX, maxY = math.Inf(-1), math.Inf(-1)
		L := p.Length()
		for s := 0.0; s < L; s += tapeGridRes {
			pt := p.PointAt(s)
			minX = math.Min(minX, pt.X)
			minY = math.Min(minY, pt.Y)
			maxX = math.Max(maxX, pt.X)
			maxY = math.Max(maxY, pt.Y)
		}
		return
	}
	ix0, iy0, ix1, iy1 := bounds(trk.InnerBoundary())
	ox0, oy0, ox1, oy1 := bounds(trk.OuterBoundary())
	minX := math.Min(ix0, ox0) - 0.1
	minY := math.Min(iy0, oy0) - 0.1
	maxX := math.Max(ix1, ox1) + 0.1
	maxY := math.Max(iy1, oy1) + 0.1
	tm := &tapeMap{
		minX: minX, minY: minY,
		w: int((maxX-minX)/tapeGridRes) + 1,
		h: int((maxY-minY)/tapeGridRes) + 1,
	}
	tm.cells = make([]bool, tm.w*tm.h)
	stamp := func(p *track.Path) {
		L := p.Length()
		r := int(math.Ceil(tapeHalfWidth / tapeGridRes))
		for s := 0.0; s < L; s += tapeGridRes / 2 {
			pt := p.PointAt(s)
			cx := int((pt.X - tm.minX) / tapeGridRes)
			cy := int((pt.Y - tm.minY) / tapeGridRes)
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					if float64(dx*dx+dy*dy)*tapeGridRes*tapeGridRes > tapeHalfWidth*tapeHalfWidth {
						continue
					}
					x, y := cx+dx, cy+dy
					if x >= 0 && x < tm.w && y >= 0 && y < tm.h {
						tm.cells[y*tm.w+x] = true
					}
				}
			}
		}
	}
	stamp(trk.InnerBoundary())
	stamp(trk.OuterBoundary())
	return tm
}

func (tm *tapeMap) onTape(x, y float64) bool {
	cx := int((x - tm.minX) / tapeGridRes)
	cy := int((y - tm.minY) / tapeGridRes)
	if cx < 0 || cx >= tm.w || cy < 0 || cy >= tm.h {
		return false
	}
	return tm.cells[cy*tm.w+cx]
}

// Camera renders synthetic first-person frames of a track from a car pose
// using flat-ground inverse projection: each pixel's view ray is intersected
// with the ground plane and colored by what lies there.
type Camera struct {
	Cfg  CameraConfig
	trk  *track.Track
	tape *tapeMap

	// Precomputed per-pixel ray directions in the camera frame
	// (x forward, y left, z up).
	rays [][3]float64
}

// NewCamera builds a camera for the given track, precomputing the tape
// occupancy grid and per-pixel rays.
func NewCamera(cfg CameraConfig, trk *track.Track) (*Camera, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if trk == nil {
		return nil, fmt.Errorf("sim: camera needs a track")
	}
	cam := &Camera{Cfg: cfg, trk: trk, tape: buildTapeMap(trk)}
	cam.rays = make([][3]float64, cfg.Width*cfg.Height)
	tanH := math.Tan(cfg.HFOV / 2)
	// Square pixels: vertical tangent scales with the aspect ratio.
	tanV := tanH * float64(cfg.Height) / float64(cfg.Width)
	cp, sp := math.Cos(cfg.Pitch), math.Sin(cfg.Pitch)
	for v := 0; v < cfg.Height; v++ {
		for u := 0; u < cfg.Width; u++ {
			// Camera-frame ray before pitch: forward 1, left, up.
			left := -(2*(float64(u)+0.5)/float64(cfg.Width) - 1) * tanH
			up := -(2*(float64(v)+0.5)/float64(cfg.Height) - 1) * tanV
			// Pitch rotates the forward/up plane downward.
			fx := cp*1 + sp*up
			fz := -sp*1 + cp*up
			cam.rays[v*cfg.Width+u] = [3]float64{fx, left, fz}
		}
	}
	return cam, nil
}

// Render draws the view from the car's pose into a new frame.
func (c *Camera) Render(st CarState) *Frame {
	f := &Frame{W: c.Cfg.Width, H: c.Cfg.Height, C: c.Cfg.Channels,
		Pix: make([]uint8, c.Cfg.Width*c.Cfg.Height*c.Cfg.Channels)}
	c.RenderInto(st, f)
	return f
}

// RenderInto draws the view into an existing frame, reusing its storage.
// The frame must match the camera's configured shape.
func (c *Camera) RenderInto(st CarState, f *Frame) {
	ch, sh := math.Cos(st.Heading), math.Sin(st.Heading)
	camH := c.Cfg.HeightAboveGround
	for i, ray := range c.rays {
		var col [3]uint8
		if ray[2] >= -1e-9 {
			col = colorSky
		} else {
			t := camH / -ray[2]
			// Ground point in the car frame, then world frame.
			gx := ray[0] * t
			gy := ray[1] * t
			wx := st.X + gx*ch - gy*sh
			wy := st.Y + gx*sh + gy*ch
			if c.tape.onTape(wx, wy) {
				col = colorTape
			} else {
				col = colorFloor
			}
			// Cheap distance shading so far ground differs from near ground.
			if t > 1 {
				fade := math.Min((t-1)/6, 0.5)
				for k := 0; k < 3; k++ {
					col[k] = uint8(float64(col[k]) * (1 - fade))
				}
			}
		}
		if c.Cfg.Channels == 3 {
			f.Pix[i*3] = col[0]
			f.Pix[i*3+1] = col[1]
			f.Pix[i*3+2] = col[2]
		} else {
			f.Pix[i] = uint8(0.299*float64(col[0]) + 0.587*float64(col[1]) + 0.114*float64(col[2]))
		}
	}
}

// Track returns the track this camera renders.
func (c *Camera) Track() *track.Track { return c.trk }
