package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Conv2D is a valid (no padding) 2-D convolution over [N, C, H, W] input
// with an [F, C, KH, KW] kernel. By default it lowers each image to an
// im2col matrix and multiplies; Naive switches to the direct nested-loop
// kernel (kept for the ablation benchmark comparing the two).
type Conv2D struct {
	InC, OutC, K, Stride int
	Naive                bool

	w, b  *Param
	lastX *Tensor
	cols  *Tensor // lowered input of the last training forward, for dW
	outH  int
	outW  int
}

// NewConv2D builds a square-kernel convolution with He initialization.
func NewConv2D(inC, outC, k, stride int, rng *rand.Rand) (*Conv2D, error) {
	if k <= 0 || stride <= 0 || inC <= 0 || outC <= 0 {
		return nil, fmt.Errorf("nn: conv2d invalid params c=%d f=%d k=%d s=%d", inC, outC, k, stride)
	}
	c := &Conv2D{InC: inC, OutC: outC, K: k, Stride: stride,
		w: newParam("w", outC, inC, k, k), b: newParam("b", 1, outC)}
	fanIn := float64(inC * k * k)
	c.w.W.RandNormal(rng, math.Sqrt(2.0/fanIn))
	return c, nil
}

// outDims is the valid-convolution output size. An input shorter than
// the kernel is rejected up front: integer division truncates toward
// zero, so (h-K)/Stride+1 would report one output row for it.
func (c *Conv2D) outDims(h, w int) (int, int, error) {
	if h < c.K || w < c.K {
		return 0, 0, fmt.Errorf("nn: conv2d input %dx%d too small for k=%d s=%d", h, w, c.K, c.Stride)
	}
	return (h-c.K)/c.Stride + 1, (w-c.K)/c.Stride + 1, nil
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *Tensor, train bool) (*Tensor, error) {
	return c.forward(x, nil, train)
}

// forward carries each image through the whole layer on one worker, a
// band of output rows at a time: lower the band (im2col), multiply it
// by the filters (A×Bᵀ against panels packed once per call), then write
// its part of y[i] in [F, oh, ow] order with the bias added and the
// fused activation, if any, applied while the band is cache-hot. Every
// output is the sequential tap sum from +0, then + b[f], then the
// activation. A training forward lowers into the whole lowered matrix,
// which dW reads; an inference forward lowers each band into the
// worker's own block and keeps nothing.
func (c *Conv2D) forward(x *Tensor, act fusedActivation, train bool) (*Tensor, error) {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		return nil, fmt.Errorf("nn: conv2d expects [N,%d,H,W], got %v", c.InC, x.Shape)
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow, err := c.outDims(h, w)
	if err != nil {
		return nil, err
	}
	c.lastX, c.outH, c.outW = x, oh, ow
	releaseScratch(c.cols) // drop a cached matrix from a backward-less pass
	c.cols = nil
	y := NewTensor(n, c.OutC, oh, ow)
	var epi func(lo, hi int)
	if act != nil {
		epi = act.fuseInto(y)
	}
	if c.Naive {
		c.forwardNaive(x, y, n, h, w, oh, ow)
		if epi != nil {
			epi(0, len(y.Data))
		}
		return y, nil
	}
	pos, patch, nf := oh*ow, c.InC*c.K*c.K, c.OutC
	if train {
		c.cols = getScratch(n*pos, patch)
	}
	var panels *Tensor
	if useAVX2 {
		panels = packTransB(c.w.W.Data, patch, nf)
	}
	bias := c.b.W.Data
	// A band's lowered rows fill about 64 KB, so a worker's own blocks
	// stay that small and its [pos, F] product stays in L1 across the F
	// passes of the layout.
	rows := min(oh, max(1, 8192/(ow*patch)))
	parallelFor(n, n*pos*patch*nf, func(i0, i1 int) {
		out := getScratch(rows*ow, nf)
		var own *Tensor // this worker's lowered band, when not training
		if !train {
			own = getScratch(rows*ow, patch)
		}
		for i := i0; i < i1; i++ {
			for oy0 := 0; oy0 < oh; oy0 += rows {
				oy1 := min(oy0+rows, oh)
				p0, m := oy0*ow, (oy1-oy0)*ow
				var a []float64
				if train {
					a = c.cols.Data[(i*pos+p0)*patch : (i*pos+p0+m)*patch]
				} else {
					a = own.Data[:m*patch]
				}
				c.lower(x.Data, i, h, w, oy0, oy1, ow, a)
				gemmTransBSerial(a, c.w.W.Data, panels, out.Data, m, patch, nf)
				for f, bf := range bias {
					lo := (i*nf+f)*pos + p0
					seg := y.Data[lo : lo+m]
					for p := range seg {
						seg[p] = out.Data[p*nf+f] + bf
					}
					if epi != nil {
						epi(lo, lo+m)
					}
				}
			}
		}
		releaseScratch(out)
		releaseScratch(own)
	})
	releaseScratch(panels)
	return y, nil
}

// lower writes output rows [oy0, oy1) of image i of x [N, InC, h, w]
// as im2col rows: row (oy-oy0)·ow+ox holds the receptive field of that
// output position, taps in (ch, ky, kx) order, the layout of the
// [F, InC·K·K] filter rows. The loops run (oy, ch, ky, ox), so each pass
// reads one input row left to right and fills one K-tap run of every
// row in the band oy.
func (c *Conv2D) lower(x []float64, i, h, w, oy0, oy1, ow int, rows []float64) {
	k, s := c.K, c.Stride
	patch := c.InC * k * k
	img := x[i*c.InC*h*w : (i+1)*c.InC*h*w]
	for oy := oy0; oy < oy1; oy++ {
		band := rows[(oy-oy0)*ow*patch : (oy-oy0+1)*ow*patch]
		for ch := 0; ch < c.InC; ch++ {
			for ky := 0; ky < k; ky++ {
				src := img[(ch*h+oy*s+ky)*w : (ch*h+oy*s+ky+1)*w]
				dst := band[(ch*k+ky)*k:]
				// Unrolled taps for the common kernel sizes: a memmove
				// call costs more than 3-5 scalar stores.
				switch k {
				case 3:
					for ox := 0; ox < ow; ox++ {
						a := src[ox*s : ox*s+3 : ox*s+3]
						d := dst[ox*patch : ox*patch+3 : ox*patch+3]
						d[0], d[1], d[2] = a[0], a[1], a[2]
					}
				case 5:
					for ox := 0; ox < ow; ox++ {
						a := src[ox*s : ox*s+5 : ox*s+5]
						d := dst[ox*patch : ox*patch+5 : ox*patch+5]
						d[0], d[1], d[2], d[3], d[4] = a[0], a[1], a[2], a[3], a[4]
					}
				default:
					for ox := 0; ox < ow; ox++ {
						copy(dst[ox*patch:ox*patch+k], src[ox*s:ox*s+k])
					}
				}
			}
		}
	}
}

func (c *Conv2D) forwardNaive(x, y *Tensor, n, h, w, oh, ow int) {
	work := func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			for f := 0; f < c.OutC; f++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						s := c.b.W.Data[f]
						for ch := 0; ch < c.InC; ch++ {
							for ky := 0; ky < c.K; ky++ {
								for kx := 0; kx < c.K; kx++ {
									xi := ((i*c.InC+ch)*h+(oy*c.Stride+ky))*w + ox*c.Stride + kx
									wi := ((f*c.InC+ch)*c.K+ky)*c.K + kx
									s += x.Data[xi] * c.w.W.Data[wi]
								}
							}
						}
						y.Data[((i*c.OutC+f)*oh+oy)*ow+ox] = s
					}
				}
			}
		}
	}
	parallelFor(n, n*c.OutC*oh*ow*c.InC*c.K*c.K, work)
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *Tensor) (*Tensor, error) {
	return c.backward(grad, true)
}

// backwardParamsOnly implements noInputGrad: when the layer is first in a
// Sequential, its input gradient is discarded, so the dCols products and
// the col2im scatter — as expensive as the whole forward pass — are
// skipped.
func (c *Conv2D) backwardParamsOnly(grad *Tensor) error {
	_, err := c.backward(grad, false)
	return err
}

// backward runs two passes per image across workers. The first
// transposes the image's gradient [F, oh·ow] into its rows of gmat
// [n·oh·ow, F] and sums each filter's gradient; the sums are folded into
// db in image order. dW is one Aᵀ×B over every position: its four-step
// groups cross image boundaries, so a per-image split would regroup its
// sums. The second pass forms the image's dCols rows (gmat row ×
// filters, full k = F) in the worker's block and scatters them into dx
// (col2im).
func (c *Conv2D) backward(grad *Tensor, needDX bool) (*Tensor, error) {
	if c.lastX == nil {
		return nil, fmt.Errorf("nn: conv2d backward before forward")
	}
	n, h, w := c.lastX.Shape[0], c.lastX.Shape[2], c.lastX.Shape[3]
	oh, ow := c.outH, c.outW
	pos, patch, nf := oh*ow, c.InC*c.K*c.K, c.OutC

	// An inference or naive forward kept no lowered matrix: rebuild it.
	lowerToo := c.cols == nil
	if lowerToo {
		c.cols = getScratch(n*pos, patch)
	}
	gmat := getScratch(n*pos, nf)
	sums := getScratch(n, nf)
	parallelFor(n, n*pos*nf, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			gi := grad.Data[i*nf*pos : (i+1)*nf*pos]
			gm := gmat.Data[i*pos*nf : (i+1)*pos*nf]
			for f := 0; f < nf; f++ {
				var s float64
				for p, v := range gi[f*pos : (f+1)*pos] {
					s += v
					gm[p*nf+f] = v
				}
				sums.Data[i*nf+f] = s
			}
			if lowerToo {
				c.lower(c.lastX.Data, i, h, w, 0, oh, ow, c.cols.Data[i*pos*patch:(i+1)*pos*patch])
			}
		}
	})
	db := c.b.grad().Data
	for i := 0; i < n; i++ {
		for f, s := range sums.Data[i*nf : (i+1)*nf] {
			db[f] += s
		}
	}
	releaseScratch(sums)

	// dW[f, tap] = sum_pos gmat[pos, f] * cols[pos, tap]  (= gmatᵀ × cols)
	dw := getScratch(nf, patch)
	gemmTransAInto(gmat.Data, c.cols.Data, dw.Data, n*pos, nf, patch)
	err := c.w.grad().AddScaled(dw, 1)
	releaseScratch(dw)
	releaseScratch(c.cols)
	c.cols = nil
	if err != nil || !needDX {
		releaseScratch(gmat)
		return nil, err
	}

	dx := NewTensor(n, c.InC, h, w)
	parallelFor(n, n*pos*nf*patch, func(i0, i1 int) {
		dcols := getScratch(pos, patch)
		for i := i0; i < i1; i++ {
			for p := 0; p < pos; p++ {
				row := dcols.Data[p*patch : (p+1)*patch]
				clear(row)
				gemmRow(gmat.Data[(i*pos+p)*nf:], 1, c.w.W.Data, row, nf, patch)
			}
			c.col2im(dcols.Data, dx.Data[i*c.InC*h*w:(i+1)*c.InC*h*w], h, w, oh, ow)
		}
		releaseScratch(dcols)
	})
	releaseScratch(gmat)
	return dx, nil
}

// col2im adds one image's dCols rows into its input gradient dx
// [InC, h, w]. The loops run (ch, oy, ky, ox, kx), the mirror of lower,
// so each pass adds into one dx row left to right, and every dx element
// receives its terms in (oy, ox) order: one tap per output position
// reaches it.
func (c *Conv2D) col2im(dcols, dx []float64, h, w, oh, ow int) {
	k, s := c.K, c.Stride
	patch := c.InC * k * k
	for ch := 0; ch < c.InC; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ky := 0; ky < k; ky++ {
				drow := dx[(ch*h+oy*s+ky)*w : (ch*h+oy*s+ky+1)*w]
				src := dcols[(ch*k+ky)*k:]
				for ox := 0; ox < ow; ox++ {
					d := drow[ox*s : ox*s+k]
					for kx, v := range src[(oy*ow+ox)*patch : (oy*ow+ox)*patch+k] {
						d[kx] += v
					}
				}
			}
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// Conv3D is a valid 3-D convolution over [N, C, T, H, W], used by the "3D"
// DonkeyCar pilot that convolves over short frame sequences. The kernel is
// [F, C, KT, K, K]. This layer is small in practice (T ≤ 4), so it uses the
// direct kernel.
type Conv3D struct {
	InC, OutC, KT, K, Stride int

	w, b  *Param
	lastX *Tensor
	outT  int
	outH  int
	outW  int
}

// NewConv3D builds a 3-D convolution with He initialization.
func NewConv3D(inC, outC, kt, k, stride int, rng *rand.Rand) (*Conv3D, error) {
	if kt <= 0 || k <= 0 || stride <= 0 || inC <= 0 || outC <= 0 {
		return nil, fmt.Errorf("nn: conv3d invalid params")
	}
	c := &Conv3D{InC: inC, OutC: outC, KT: kt, K: k, Stride: stride,
		w: newParam("w", outC, inC, kt, k, k), b: newParam("b", 1, outC)}
	fanIn := float64(inC * kt * k * k)
	c.w.W.RandNormal(rng, math.Sqrt(2.0/fanIn))
	return c, nil
}

// Forward implements Layer.
func (c *Conv3D) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) != 5 || x.Shape[1] != c.InC {
		return nil, fmt.Errorf("nn: conv3d expects [N,%d,T,H,W], got %v", c.InC, x.Shape)
	}
	n, t, h, w := x.Shape[0], x.Shape[2], x.Shape[3], x.Shape[4]
	if t < c.KT || h < c.K || w < c.K {
		return nil, fmt.Errorf("nn: conv3d input %dx%dx%d too small", t, h, w)
	}
	ot := t - c.KT + 1
	oh := (h-c.K)/c.Stride + 1
	ow := (w-c.K)/c.Stride + 1
	c.lastX, c.outT, c.outH, c.outW = x, ot, oh, ow
	y := NewTensor(n, c.OutC, ot, oh, ow)
	work := func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			for f := 0; f < c.OutC; f++ {
				for oz := 0; oz < ot; oz++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							s := c.b.W.Data[f]
							for ch := 0; ch < c.InC; ch++ {
								for kz := 0; kz < c.KT; kz++ {
									for ky := 0; ky < c.K; ky++ {
										for kx := 0; kx < c.K; kx++ {
											xi := (((i*c.InC+ch)*t+(oz+kz))*h+(oy*c.Stride+ky))*w + ox*c.Stride + kx
											wi := (((f*c.InC+ch)*c.KT+kz)*c.K+ky)*c.K + kx
											s += x.Data[xi] * c.w.W.Data[wi]
										}
									}
								}
							}
							y.Data[(((i*c.OutC+f)*ot+oz)*oh+oy)*ow+ox] = s
						}
					}
				}
			}
		}
	}
	parallelFor(n, n*c.OutC*ot*oh*ow*c.InC*c.KT*c.K*c.K, work)
	return y, nil
}

// Backward implements Layer.
func (c *Conv3D) Backward(grad *Tensor) (*Tensor, error) {
	if c.lastX == nil {
		return nil, fmt.Errorf("nn: conv3d backward before forward")
	}
	x := c.lastX
	n, t, h, w := x.Shape[0], x.Shape[2], x.Shape[3], x.Shape[4]
	ot, oh, ow := c.outT, c.outH, c.outW
	dx := NewTensor(n, c.InC, t, h, w)
	db, dw := c.b.grad().Data, c.w.grad().Data
	for i := 0; i < n; i++ {
		for f := 0; f < c.OutC; f++ {
			for oz := 0; oz < ot; oz++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						g := grad.Data[(((i*c.OutC+f)*ot+oz)*oh+oy)*ow+ox]
						if g == 0 {
							continue
						}
						db[f] += g
						for ch := 0; ch < c.InC; ch++ {
							for kz := 0; kz < c.KT; kz++ {
								for ky := 0; ky < c.K; ky++ {
									for kx := 0; kx < c.K; kx++ {
										xi := (((i*c.InC+ch)*t+(oz+kz))*h+(oy*c.Stride+ky))*w + ox*c.Stride + kx
										wi := (((f*c.InC+ch)*c.KT+kz)*c.K+ky)*c.K + kx
										dw[wi] += g * x.Data[xi]
										dx.Data[xi] += g * c.w.W.Data[wi]
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return dx, nil
}

// Params implements Layer.
func (c *Conv3D) Params() []*Param { return []*Param{c.w, c.b} }
