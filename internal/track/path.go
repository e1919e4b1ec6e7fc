// Package track models driving-track geometry for the AutoLearn module:
// closed centerline paths, lane width, boundary offset curves, and the two
// tracks the paper uses (the hand-taped oval and the Waveshare commercial
// track). All distances are meters.
package track

import (
	"errors"
	"fmt"
	"math"
)

// Point is a 2-D position on the ground plane.
type Point struct {
	X, Y float64
}

// Sub returns the vector p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dot returns the dot product of p and q treated as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the 2-D cross product (z component) of p and q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Path is a closed curve represented as a densely sampled polyline with a
// cumulative arclength table. It supports arclength-parameterized queries
// and nearest-point projection, which the simulator uses for lane keeping,
// off-track detection, and lap counting.
type Path struct {
	pts    []Point   // sampled vertices, pts[0] == start; curve closes back to pts[0]
	cum    []float64 // cum[i] = arclength from pts[0] to pts[i]; len(cum) == len(pts)+1
	length float64   // total closed length
	closed bool
}

// ErrTooFewPoints is returned when constructing a path from fewer than three
// vertices, which cannot describe a closed curve.
var ErrTooFewPoints = errors.New("track: path needs at least 3 points")

// NewClosedPath builds a closed path from polyline vertices. The final
// segment from the last vertex back to the first is implied.
func NewClosedPath(pts []Point) (*Path, error) {
	if len(pts) < 3 {
		return nil, ErrTooFewPoints
	}
	p := &Path{pts: pts, closed: true}
	p.cum = make([]float64, len(pts)+1)
	for i := 1; i <= len(pts); i++ {
		prev := pts[i-1]
		next := pts[i%len(pts)]
		p.cum[i] = p.cum[i-1] + prev.Dist(next)
	}
	p.length = p.cum[len(pts)]
	if p.length <= 0 {
		return nil, fmt.Errorf("track: degenerate path with zero length")
	}
	return p, nil
}

// Length returns the total arclength of the closed path.
func (p *Path) Length() float64 { return p.length }

// wrap normalizes an arclength coordinate into [0, length).
func (p *Path) wrap(s float64) float64 {
	s = math.Mod(s, p.length)
	if s < 0 {
		s += p.length
	}
	return s
}

// segmentAt locates the polyline segment containing arclength s and returns
// the segment index plus the fraction along it.
func (p *Path) segmentAt(s float64) (idx int, frac float64) {
	s = p.wrap(s)
	// Binary search the cumulative table.
	lo, hi := 0, len(p.cum)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if p.cum[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	segLen := p.cum[lo+1] - p.cum[lo]
	if segLen <= 0 {
		return lo, 0
	}
	return lo, (s - p.cum[lo]) / segLen
}

// PointAt returns the position at arclength s (wrapped modulo Length).
func (p *Path) PointAt(s float64) Point {
	i, f := p.segmentAt(s)
	a := p.pts[i]
	b := p.pts[(i+1)%len(p.pts)]
	return Point{a.X + (b.X-a.X)*f, a.Y + (b.Y-a.Y)*f}
}

// TangentAt returns the unit tangent at arclength s.
func (p *Path) TangentAt(s float64) Point {
	i, _ := p.segmentAt(s)
	a := p.pts[i]
	b := p.pts[(i+1)%len(p.pts)]
	d := b.Sub(a)
	n := d.Norm()
	if n == 0 {
		return Point{1, 0}
	}
	return Point{d.X / n, d.Y / n}
}

// HeadingAt returns the tangent direction at arclength s in radians.
func (p *Path) HeadingAt(s float64) float64 {
	t := p.TangentAt(s)
	return math.Atan2(t.Y, t.X)
}

// CurvatureAt estimates signed curvature at arclength s by finite
// differencing the heading over a small window. Positive curvature bends
// left (counter-clockwise).
func (p *Path) CurvatureAt(s float64) float64 {
	h := math.Max(p.length/float64(len(p.pts))/2, 1e-3)
	a := p.HeadingAt(s - h)
	b := p.HeadingAt(s + h)
	d := b - a
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	return d / (2 * h)
}

// Projection is the result of projecting a point onto the path.
type Projection struct {
	S       float64 // arclength of the closest centerline point
	Lateral float64 // signed lateral offset; positive is left of travel direction
	Point   Point   // the closest centerline point
}

// Project finds the nearest centerline point to q. It scans all segments,
// which is O(n) in vertices; paths are sampled at ~5 cm resolution so this
// stays cheap for room-scale tracks.
func (p *Path) Project(q Point) Projection {
	best := Projection{Lateral: math.Inf(1)}
	bestDist := math.Inf(1)
	n := len(p.pts)
	for i := 0; i < n; i++ {
		a := p.pts[i]
		b := p.pts[(i+1)%n]
		ab := b.Sub(a)
		abLen2 := ab.Dot(ab)
		t := 0.0
		if abLen2 > 0 {
			t = q.Sub(a).Dot(ab) / abLen2
		}
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		c := Point{a.X + ab.X*t, a.Y + ab.Y*t}
		d := q.Dist(c)
		if d < bestDist {
			bestDist = d
			s := p.cum[i] + math.Sqrt(abLen2)*t
			tan := ab
			tn := tan.Norm()
			sign := 1.0
			if tn > 0 {
				if tan.Cross(q.Sub(c)) < 0 {
					sign = -1
				}
			}
			best = Projection{S: p.wrap(s), Lateral: sign * d, Point: c}
		}
	}
	return best
}

// Offset returns a new closed path displaced laterally by d (positive =
// left of the travel direction). Used to compute lane boundary lines.
func (p *Path) Offset(d float64) (*Path, error) {
	n := len(p.pts)
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		prev := p.pts[(i-1+n)%n]
		next := p.pts[(i+1)%n]
		t := next.Sub(prev)
		tn := t.Norm()
		if tn == 0 {
			out[i] = p.pts[i]
			continue
		}
		// Left normal of the tangent.
		nx, ny := -t.Y/tn, t.X/tn
		out[i] = Point{p.pts[i].X + nx*d, p.pts[i].Y + ny*d}
	}
	return NewClosedPath(out)
}
