package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference below is Conv2D and ReLU as they were before the
// per-image pass, kept as the oracle: a whole-batch im2col (without its
// unrolled taps and worker split, which move the same values), one
// gemmTransBInto, a serial transpose with the bias, then the activation;
// backward sums db image by image, transposes the whole gradient, runs
// one dW and one dCols product and scatters position by position.

func refIm2col(c *Conv2D, x, cols *Tensor, n, h, w, oh, ow int) {
	patch := c.InC * c.K * c.K
	for i := 0; i < n; i++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := cols.Data[((i*oh+oy)*ow+ox)*patch:]
				t := 0
				for ch := 0; ch < c.InC; ch++ {
					base := ((i*c.InC + ch) * h) * w
					for ky := 0; ky < c.K; ky++ {
						src := base + (oy*c.Stride+ky)*w + ox*c.Stride
						copy(row[t:t+c.K], x.Data[src:src+c.K])
						t += c.K
					}
				}
			}
		}
	}
}

// refConvForward returns the pre-activation output and the lowered input.
func refConvForward(c *Conv2D, x *Tensor) (y, cols *Tensor) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow, err := c.outDims(h, w)
	if err != nil {
		panic(err)
	}
	patch := c.InC * c.K * c.K
	cols = NewTensor(n*oh*ow, patch)
	refIm2col(c, x, cols, n, h, w, oh, ow)
	out2d := NewTensor(n*oh*ow, c.OutC)
	gemmTransBInto(cols.Data, c.w.W.Data, out2d.Data, n*oh*ow, patch, c.OutC)
	y = NewTensor(n, c.OutC, oh, ow)
	for i := 0; i < n; i++ {
		for p := 0; p < oh*ow; p++ {
			row := out2d.Data[(i*oh*ow+p)*c.OutC:]
			for f := 0; f < c.OutC; f++ {
				y.Data[((i*c.OutC+f)*oh*ow)+p] = row[f] + c.b.W.Data[f]
			}
		}
	}
	return y, cols
}

func refConvBackward(c *Conv2D, x, cols, grad *Tensor) (dx, dw, db *Tensor) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow, _ := c.outDims(h, w)
	patch := c.InC * c.K * c.K
	db = NewTensor(1, c.OutC)
	for i := 0; i < n; i++ {
		for f := 0; f < c.OutC; f++ {
			base := ((i*c.OutC + f) * oh) * ow
			var s float64
			for p := 0; p < oh*ow; p++ {
				s += grad.Data[base+p]
			}
			db.Data[f] += s
		}
	}
	gmat := NewTensor(n*oh*ow, c.OutC)
	for i := 0; i < n; i++ {
		for f := 0; f < c.OutC; f++ {
			base := ((i*c.OutC + f) * oh) * ow
			for p := 0; p < oh*ow; p++ {
				gmat.Data[(i*oh*ow+p)*c.OutC+f] = grad.Data[base+p]
			}
		}
	}
	dw = NewTensor(c.OutC, c.InC, c.K, c.K)
	gemmTransAInto(gmat.Data, cols.Data, dw.Data, n*oh*ow, c.OutC, patch)
	dcols := NewTensor(n*oh*ow, patch)
	gemmInto(gmat.Data, c.w.W.Data, dcols.Data, n*oh*ow, c.OutC, patch)
	dx = NewTensor(n, c.InC, h, w)
	for i := 0; i < n; i++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := dcols.Data[((i*oh+oy)*ow+ox)*patch:]
				t := 0
				for ch := 0; ch < c.InC; ch++ {
					base := ((i*c.InC + ch) * h) * w
					for ky := 0; ky < c.K; ky++ {
						dst := base + (oy*c.Stride+ky)*w + ox*c.Stride
						for kx := 0; kx < c.K; kx++ {
							dx.Data[dst+kx] += row[t]
							t++
						}
					}
				}
			}
		}
	}
	return dx, dw, db
}

func refReLU(y []float64) []bool {
	mask := make([]bool, len(y))
	for i := range y {
		if y[i] < 0 {
			y[i] = 0
			mask[i] = false
		} else {
			mask[i] = true
		}
	}
	return mask
}

func refReLUBackward(grad []float64, mask []bool) {
	for i := range grad {
		if !mask[i] {
			grad[i] = 0
		}
	}
}

// firstDiff returns the first index where got and want differ in bits
// (NaN matching NaN), or -1.
func firstDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// TestConv2DMatchesReferenceBitwise runs the per-image Conv2D and its
// fused ReLU against the reference over batch, channel, filter, kernel,
// stride and image-size grids (oh·ow%4 ≠ 0, oh·ow < 4, and 13×40 images
// whose wider kernels split into several bands of output rows), at
// 1–3 workers, with and without ±0, subnormals, ±Inf and NaN in the
// input and the upstream gradient, and biases at −0, +0 and NaN. y, the
// ReLU mask, the gradient through ReLU, dx, dW and db must match bit for
// bit. A training forward is checked with the full backward, an
// inference forward with the params-only backward that rebuilds the
// lowered matrix.
func TestConv2DMatchesReferenceBitwise(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))

	// ReLU on its own, where a pre-activation can be −0.
	in := []float64{-1, math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5, -2.5}
	want := append([]float64(nil), in...)
	wantMask := refReLU(want)
	var r ReLU
	x, _ := FromSlice(append([]float64(nil), in...), 1, len(in))
	y, err := r.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(y.Data, want); i >= 0 {
		t.Fatalf("relu(%v) = %v (%#x), reference %v", in[i], y.Data[i], math.Float64bits(y.Data[i]), want[i])
	}
	for i := range wantMask {
		if r.mask[i] != wantMask[i] {
			t.Fatalf("relu mask[%d] for %v is %v, reference %v", i, in[i], r.mask[i], wantMask[i])
		}
	}
	g, _ := FromSlice(append([]float64(nil), in...), 1, len(in))
	wantG := append([]float64(nil), in...)
	refReLUBackward(wantG, wantMask)
	if _, err := r.Backward(g); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(g.Data, wantG); i >= 0 {
		t.Fatalf("relu backward at %d: %v, reference %v", i, g.Data[i], wantG[i])
	}

	rng := rand.New(rand.NewSource(11))
	all := []int{1, 2, 3, 5, 32}
	for _, g := range []struct {
		h, w    int
		batches []int
	}{{7, 9, all}, {6, 5, all}, {13, 40, []int{1, 3}}} {
		hw := [2]int{g.h, g.w}
		for _, n := range g.batches {
			for _, inC := range []int{1, 3, 8} {
				for _, outC := range []int{1, 5, 8, 16, 17} {
					for _, k := range []int{1, 3, 5} {
						for _, stride := range []int{1, 2} {
							for _, specials := range []bool{false, true} {
								name := fmt.Sprintf("n=%d c=%d f=%d k=%d s=%d %dx%d specials=%v",
									n, inC, outC, k, stride, hw[0], hw[1], specials)
								checkConvCase(t, rng, name, n, inC, outC, k, stride, hw[0], hw[1], specials)
							}
						}
					}
				}
			}
		}
	}
}

func checkConvCase(t *testing.T, rng *rand.Rand, name string, n, inC, outC, k, stride, h, w int, specials bool) {
	t.Helper()
	c, err := NewConv2D(inC, outC, k, stride, rng)
	if err != nil {
		t.Fatal(err)
	}
	specialFill(rng, c.w.W.Data, false)
	specialFill(rng, c.b.W.Data, false)
	for f, v := range []float64{math.Copysign(0, -1), 0, math.NaN()} {
		if f+1 < outC {
			c.b.W.Data[f+1] = v
		}
	}
	x := NewTensor(n, inC, h, w)
	specialFill(rng, x.Data, specials)
	pre, cols := refConvForward(c, x)
	wantY := pre.Clone()
	wantMask := refReLU(wantY.Data)
	grad := NewTensor(pre.Shape...)
	specialFill(rng, grad.Data, specials)
	wantDY := grad.Clone()
	refReLUBackward(wantDY.Data, wantMask)
	wantDX, wantDW, wantDB := refConvBackward(c, x, cols, wantDY)

	check := func(what string, got, want []float64) {
		t.Helper()
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("%s: %s element %d is %v (%#x), reference %v (%#x)", name, what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	for workers := 1; workers <= 3; workers++ {
		SetMaxWorkers(workers)
		for _, train := range []bool{true, false} {
			for _, p := range c.Params() {
				p.ZeroGrad()
			}
			var relu ReLU
			y, err := c.forward(x, &relu, train)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("workers=%d train=%v", workers, train)
			check(what+" y", y.Data, wantY.Data)
			for i := range wantMask {
				if relu.mask[i] != wantMask[i] {
					t.Fatalf("%s: %s relu mask[%d] is %v, reference %v", name, what, i, relu.mask[i], wantMask[i])
				}
			}
			dy, err := relu.Backward(grad.Clone())
			if err != nil {
				t.Fatal(err)
			}
			check(what+" grad through relu", dy.Data, wantDY.Data)
			if train {
				dx, err := c.Backward(dy)
				if err != nil {
					t.Fatal(err)
				}
				check(what+" dx", dx.Data, wantDX.Data)
			} else if err := c.backwardParamsOnly(dy); err != nil {
				t.Fatal(err)
			}
			check(what+" dW", c.w.Grad.Data, wantDW.Data)
			check(what+" db", c.b.Grad.Data, wantDB.Data)
		}
	}
}
