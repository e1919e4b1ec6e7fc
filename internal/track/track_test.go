package track

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewClosedPathTooFew(t *testing.T) {
	if _, err := NewClosedPath([]Point{{0, 0}, {1, 0}}); err == nil {
		t.Fatal("expected error for 2-point path")
	}
}

func square(t *testing.T) *Path {
	t.Helper()
	p, err := NewClosedPath([]Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSquareLength(t *testing.T) {
	p := square(t)
	if got := p.Length(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("square perimeter = %g, want 4", got)
	}
}

func TestPointAtWraps(t *testing.T) {
	p := square(t)
	for _, s := range []float64{0, 4, 8, -4} {
		pt := p.PointAt(s)
		if pt.Dist(Point{0, 0}) > 1e-9 {
			t.Errorf("PointAt(%g) = %v, want origin", s, pt)
		}
	}
	mid := p.PointAt(0.5)
	if mid.Dist(Point{0.5, 0}) > 1e-9 {
		t.Errorf("PointAt(0.5) = %v, want (0.5,0)", mid)
	}
}

func TestTangentAndHeading(t *testing.T) {
	p := square(t)
	if h := p.HeadingAt(0.5); math.Abs(h) > 1e-9 {
		t.Errorf("heading on bottom edge = %g, want 0", h)
	}
	if h := p.HeadingAt(1.5); math.Abs(h-math.Pi/2) > 1e-9 {
		t.Errorf("heading on right edge = %g, want pi/2", h)
	}
}

func TestProjectInside(t *testing.T) {
	p := square(t)
	proj := p.Project(Point{0.5, 0.2})
	if math.Abs(proj.S-0.5) > 1e-9 {
		t.Errorf("S = %g, want 0.5", proj.S)
	}
	// Point is left of the bottom edge travel direction (+x), so lateral > 0.
	if math.Abs(proj.Lateral-0.2) > 1e-9 {
		t.Errorf("lateral = %g, want +0.2", proj.Lateral)
	}
}

func TestProjectOutsideIsNegative(t *testing.T) {
	p := square(t)
	proj := p.Project(Point{0.5, -0.3})
	if math.Abs(proj.Lateral+0.3) > 1e-9 {
		t.Errorf("lateral = %g, want -0.3", proj.Lateral)
	}
}

func TestBuilderCircleClosesAndHasRightLength(t *testing.T) {
	p, err := NewBuilder(0, 0, 0, 0.02).Arc(1.0, 2*math.Pi).Close()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Pi
	if got := p.Length(); math.Abs(got-want) > 0.02 {
		t.Fatalf("circle length = %g, want %g", got, want)
	}
}

func TestBuilderRejectsOpenLoop(t *testing.T) {
	if _, err := NewBuilder(0, 0, 0, 0.05).Straight(1).Close(); err == nil {
		t.Fatal("expected error closing a straight line")
	}
}

func TestBuilderRejectsBadInputs(t *testing.T) {
	if _, err := NewBuilder(0, 0, 0, 0.05).Straight(-1).Close(); err == nil {
		t.Fatal("expected error for negative straight")
	}
	if _, err := NewBuilder(0, 0, 0, 0.05).Arc(-1, 1).Close(); err == nil {
		t.Fatal("expected error for negative radius")
	}
	if _, err := NewBuilder(0, 0, 0, 0.05).Arc(1, 0).Close(); err == nil {
		t.Fatal("expected error for zero angle")
	}
}

func TestDefaultOvalMatchesPaperDimensions(t *testing.T) {
	trk, err := DefaultOval()
	if err != nil {
		t.Fatal(err)
	}
	sum := trk.Summarize()
	wantWidth := 27.59 * MetersPerInch
	if math.Abs(sum.AvgWidth-wantWidth) > 1e-9 {
		t.Errorf("width = %g, want %g", sum.AvgWidth, wantWidth)
	}
	wantInner := 330 * MetersPerInch
	wantOuter := 509 * MetersPerInch
	// Hand-taped lines are not perfect offsets; allow 12% deviation.
	if rel := math.Abs(sum.InnerLength-wantInner) / wantInner; rel > 0.12 {
		t.Errorf("inner length = %.3f m (%.0f in), want ~%.3f m (rel err %.2f)",
			sum.InnerLength, sum.InnerLength/MetersPerInch, wantInner, rel)
	}
	if rel := math.Abs(sum.OuterLength-wantOuter) / wantOuter; rel > 0.12 {
		t.Errorf("outer length = %.3f m (%.0f in), want ~%.3f m (rel err %.2f)",
			sum.OuterLength, sum.OuterLength/MetersPerInch, wantOuter, rel)
	}
	if sum.InnerLength >= sum.OuterLength {
		t.Errorf("inner (%g) should be shorter than outer (%g)", sum.InnerLength, sum.OuterLength)
	}
}

func TestWaveshareCloses(t *testing.T) {
	trk, err := Waveshare()
	if err != nil {
		t.Fatal(err)
	}
	if trk.Centerline.Length() < 5 {
		t.Errorf("waveshare centerline suspiciously short: %g", trk.Centerline.Length())
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"default-oval", "oval", "", "waveshare"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown track")
	}
}

func TestOnTrack(t *testing.T) {
	trk, err := DefaultOval()
	if err != nil {
		t.Fatal(err)
	}
	// Centerline points are always on track.
	for s := 0.0; s < trk.Centerline.Length(); s += 0.5 {
		if !trk.OnTrack(trk.Centerline.PointAt(s)) {
			t.Errorf("centerline point at s=%g reported off-track", s)
		}
	}
	// A point far away is off track.
	if trk.OnTrack(Point{100, 100}) {
		t.Error("(100,100) reported on-track")
	}
}

func TestStartPoseOnCenterline(t *testing.T) {
	trk, err := DefaultOval()
	if err != nil {
		t.Fatal(err)
	}
	x, y, h := trk.StartPose(1.0)
	proj := trk.Centerline.Project(Point{x, y})
	if math.Abs(proj.Lateral) > 1e-6 {
		t.Errorf("start pose lateral offset = %g, want 0", proj.Lateral)
	}
	if d := math.Abs(h - trk.Centerline.HeadingAt(1.0)); d > 1e-9 {
		t.Errorf("heading mismatch: %g", d)
	}
}

func TestOffsetLengthOrdering(t *testing.T) {
	trk, err := DefaultOval()
	if err != nil {
		t.Fatal(err)
	}
	// For a convex counter-clockwise loop, a positive (left/outer) offset is
	// longer and a negative offset shorter.
	c := trk.Centerline.Length()
	if trk.OuterBoundary().Length() <= c {
		t.Error("outer boundary not longer than centerline")
	}
	if trk.InnerBoundary().Length() >= c {
		t.Error("inner boundary not shorter than centerline")
	}
}

func TestCurvatureSignOnCircle(t *testing.T) {
	p, err := NewBuilder(0, 0, 0, 0.02).Arc(1.0, 2*math.Pi).Close()
	if err != nil {
		t.Fatal(err)
	}
	// Counter-clockwise circle of radius 1: curvature ~ +1 everywhere.
	for s := 0.0; s < p.Length(); s += 0.7 {
		k := p.CurvatureAt(s)
		if k < 0.5 || k > 1.5 {
			t.Errorf("curvature at s=%g is %g, want ~1", s, k)
		}
	}
}

// Property: projecting a point that lies exactly on the centerline gives
// near-zero lateral offset, for arbitrary arclengths.
func TestProjectCenterlinePointsProperty(t *testing.T) {
	trk, err := DefaultOval()
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw float64) bool {
		s := math.Mod(math.Abs(raw), trk.Centerline.Length())
		pt := trk.Centerline.PointAt(s)
		proj := trk.Centerline.Project(pt)
		return math.Abs(proj.Lateral) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: PointAt is periodic with period Length.
func TestPointAtPeriodicProperty(t *testing.T) {
	p := square(t)
	f := func(raw float64) bool {
		s := math.Mod(raw, 1000)
		a := p.PointAt(s)
		b := p.PointAt(s + p.Length())
		return a.Dist(b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Project returns a lateral whose magnitude equals the distance to
// the returned closest point.
func TestProjectDistanceConsistencyProperty(t *testing.T) {
	trk, err := Waveshare()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		q := Point{rng.Float64()*8 - 2, rng.Float64()*8 - 2}
		proj := trk.Centerline.Project(q)
		if math.Abs(math.Abs(proj.Lateral)-q.Dist(proj.Point)) > 1e-9 {
			t.Fatalf("lateral %g vs distance %g at %v", proj.Lateral, q.Dist(proj.Point), q)
		}
	}
}
