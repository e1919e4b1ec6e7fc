package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestOptimizersMatchSerialBitwise checks the elementwise passes of
// Adam and ClipGradients at 1–3 workers against their serial loops
// as they were, bit for bit, on a param big enough to split and one that
// runs inline, with ±0, subnormals, ±Inf and NaN among the weights and
// gradients (NaN only, among the clipped ones, so the max is finite).
func TestOptimizersMatchSerialBitwise(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(13))
	sizes := []int{70001, 7}
	w0 := make([][]float64, len(sizes))
	g0 := make([][][]float64, 3) // per step
	for i, n := range sizes {
		w0[i] = make([]float64, n)
		specialFill(rng, w0[i], true)
	}
	for s := range g0 {
		g0[s] = make([][]float64, len(sizes))
		for i, n := range sizes {
			g0[s][i] = make([]float64, n)
			specialFill(rng, g0[s][i], true)
		}
	}
	newParams := func() []*Param {
		ps := make([]*Param, len(sizes))
		for i, n := range sizes {
			ps[i] = newParam("p", n)
			copy(ps[i].W.Data, w0[i])
		}
		return ps
	}
	setGrads := func(ps []*Param, step int) {
		for i, p := range ps {
			copy(p.grad().Data, g0[step][i])
		}
	}
	check := func(what string, workers int, got, want []*Param) {
		t.Helper()
		for i := range want {
			if j := firstDiff(got[i].W.Data, want[i].W.Data); j >= 0 {
				t.Fatalf("%s workers=%d: param %d weight %d is %v, serial %v", what, workers, i, j, got[i].W.Data[j], want[i].W.Data[j])
			}
			if j := firstDiff(got[i].Grad.Data, want[i].Grad.Data); j >= 0 {
				t.Fatalf("%s workers=%d: param %d grad %d is %v, serial %v", what, workers, i, j, got[i].Grad.Data[j], want[i].Grad.Data[j])
			}
		}
	}

	// The serial loops.
	wantAdam := newParams()
	{
		// Variables, not constants: Go folds constant expressions
		// exactly, and Adam computes 1-β at run time.
		b1, b2, eps := 0.9, 0.999, 1e-8
		m := make([][]float64, len(sizes))
		v := make([][]float64, len(sizes))
		for s := range g0 {
			setGrads(wantAdam, s)
			bc1 := 1 - math.Pow(b1, float64(s+1))
			bc2 := 1 - math.Pow(b2, float64(s+1))
			step, invBC2 := 0.01/bc1, 1/bc2
			for i, p := range wantAdam {
				if m[i] == nil {
					m[i], v[i] = make([]float64, len(p.W.Data)), make([]float64, len(p.W.Data))
				}
				w, gd, md, vd := p.W.Data, p.Grad.Data, m[i], v[i]
				for j := range w {
					gi := gd[j]
					md[j] = b1*md[j] + (1-b1)*gi
					vd[j] = b2*vd[j] + (1-b2)*gi*gi
					w[j] -= step * md[j] / (math.Sqrt(vd[j]*invBC2) + eps)
				}
				p.Grad.Zero()
			}
		}
	}
	// Clipping gets finite gradients with NaNs, which the max skips, and
	// its largest magnitude in the big param's last chunk.
	clipGrads := make([][]float64, len(sizes))
	for i, n := range sizes {
		clipGrads[i] = make([]float64, n)
		specialFill(rng, clipGrads[i], false)
		clipGrads[i][0], clipGrads[i][n/2] = math.NaN(), math.NaN()
	}
	clipGrads[0][sizes[0]-3] = -1e9
	setClipGrads := func(ps []*Param) {
		for i, p := range ps {
			copy(p.grad().Data, clipGrads[i])
		}
	}
	wantClip := newParams()
	setClipGrads(wantClip)
	wantMax := 0.0
	for _, p := range wantClip {
		if m := p.Grad.MaxAbs(); m > wantMax {
			wantMax = m
		}
	}
	for _, p := range wantClip {
		for j := range p.Grad.Data {
			p.Grad.Data[j] *= 0.5 / wantMax
		}
	}

	for workers := 1; workers <= 3; workers++ {
		SetMaxWorkers(workers)
		opt, err := NewAdam(0.01)
		if err != nil {
			t.Fatal(err)
		}
		ps := newParams()
		for s := range g0 {
			setGrads(ps, s)
			if err := opt.Step(ps); err != nil {
				t.Fatal(err)
			}
		}
		check("adam", workers, ps, wantAdam)

		ps = newParams()
		setClipGrads(ps)
		if got := ClipGradients(ps, 0.5); !sameBits(got, wantMax) {
			t.Fatalf("clip workers=%d: max %v, serial %v", workers, got, wantMax)
		}
		check("clip", workers, ps, wantClip)
	}
}
