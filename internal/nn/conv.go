package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Conv2D is a valid (no padding) 2-D convolution over [N, C, H, W] input
// with an [F, C, KH, KW] kernel. By default it lowers to an im2col matrix
// multiply; Naive switches to the direct nested-loop kernel (kept for the
// ablation benchmark comparing the two).
type Conv2D struct {
	InC, OutC, K, Stride int
	Naive                bool

	w, b  *Param
	lastX *Tensor
	cols  *Tensor // cached im2col matrix for backward
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
	return c.forward(x, nil)
}

// forward lowers the convolution to a blocked GEMM over scratch-pooled
// im2col buffers, optionally applying a fused activation epilogue to the
// output while it is cache-hot.
func (c *Conv2D) forward(x *Tensor, act fusedActivation) (*Tensor, error) {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		return nil, fmt.Errorf("nn: conv2d expects [N,%d,H,W], got %v", c.InC, x.Shape)
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow, err := c.outDims(h, w)
	if err != nil {
		return nil, err
	}
	c.lastX, c.outH, c.outW = x, oh, ow
	if c.Naive {
		y, err := c.forwardNaive(x, n, h, w, oh, ow)
		if err == nil && act != nil {
			act.fuseInto(y)(0, len(y.Data))
		}
		return y, err
	}
	// im2col: rows are output positions, columns are receptive-field taps.
	patch := c.InC * c.K * c.K
	releaseScratch(c.cols) // drop a cached matrix from a backward-less pass
	cols := getScratch(n*oh*ow, patch)
	c.im2col(x, cols, n, h, w, oh, ow)
	c.cols = cols
	wMat, err := c.w.W.Reshape(c.OutC, patch)
	if err != nil {
		return nil, err
	}
	out2d := getScratch(n*oh*ow, c.OutC)
	gemmTransBInto(cols.Data, wMat.Data, out2d.Data, n*oh*ow, patch, c.OutC)
	y := NewTensor(n, c.OutC, oh, ow)
	// Transpose [pos, f] into [n, f, oh, ow] and add bias.
	for i := 0; i < n; i++ {
		for p := 0; p < oh*ow; p++ {
			row := out2d.Data[(i*oh*ow+p)*c.OutC:]
			for f := 0; f < c.OutC; f++ {
				y.Data[((i*c.OutC+f)*oh*ow)+p] = row[f] + c.b.W.Data[f]
			}
		}
	}
	releaseScratch(out2d)
	if act != nil {
		act.fuseInto(y)(0, len(y.Data))
	}
	return y, nil
}

func (c *Conv2D) im2col(x, cols *Tensor, n, h, w, oh, ow int) {
	patch := c.InC * c.K * c.K
	work := func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					row := cols.Data[((i*oh+oy)*ow+ox)*patch:]
					t := 0
					for ch := 0; ch < c.InC; ch++ {
						base := ((i*c.InC + ch) * h) * w
						for ky := 0; ky < c.K; ky++ {
							src := base + (oy*c.Stride+ky)*w + ox*c.Stride
							// Unrolled taps for the common kernel sizes:
							// a memmove call costs more than 3-5 scalar
							// stores.
							switch c.K {
							case 3:
								s := x.Data[src : src+3 : src+3]
								d := row[t : t+3 : t+3]
								d[0], d[1], d[2] = s[0], s[1], s[2]
							case 5:
								s := x.Data[src : src+5 : src+5]
								d := row[t : t+5 : t+5]
								d[0], d[1], d[2], d[3], d[4] = s[0], s[1], s[2], s[3], s[4]
							default:
								copy(row[t:t+c.K], x.Data[src:src+c.K])
							}
							t += c.K
						}
					}
				}
			}
		}
	}
	parallelFor(n, n*oh*ow*patch, work)
}

func (c *Conv2D) forwardNaive(x *Tensor, n, h, w, oh, ow int) (*Tensor, error) {
	y := NewTensor(n, c.OutC, oh, ow)
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
	return y, nil
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *Tensor) (*Tensor, error) {
	return c.backward(grad, true)
}

// backwardParamsOnly implements noInputGrad: when the layer is first in a
// Sequential, its input gradient is discarded, so the dCols GEMM and the
// col2im scatter — as expensive as the whole forward pass — are skipped.
func (c *Conv2D) backwardParamsOnly(grad *Tensor) error {
	_, err := c.backward(grad, false)
	return err
}

func (c *Conv2D) backward(grad *Tensor, needDX bool) (*Tensor, error) {
	if c.lastX == nil {
		return nil, fmt.Errorf("nn: conv2d backward before forward")
	}
	n, h, w := c.lastX.Shape[0], c.lastX.Shape[2], c.lastX.Shape[3]
	oh, ow := c.outH, c.outW
	patch := c.InC * c.K * c.K

	// Bias gradient.
	db := c.b.grad().Data
	for i := 0; i < n; i++ {
		for f := 0; f < c.OutC; f++ {
			base := ((i*c.OutC + f) * oh) * ow
			var s float64
			for p := 0; p < oh*ow; p++ {
				s += grad.Data[base+p]
			}
			db[f] += s
		}
	}

	// Rearrange grad [n, f, oh, ow] into [n*oh*ow, f].
	gmat := getScratch(n*oh*ow, c.OutC)
	for i := 0; i < n; i++ {
		for f := 0; f < c.OutC; f++ {
			base := ((i*c.OutC + f) * oh) * ow
			for p := 0; p < oh*ow; p++ {
				gmat.Data[(i*oh*ow+p)*c.OutC+f] = grad.Data[base+p]
			}
		}
	}

	if c.cols == nil {
		// Naive path: rebuild the im2col matrix for gradient computation.
		cols := getScratch(n*oh*ow, patch)
		c.im2col(c.lastX, cols, n, h, w, oh, ow)
		c.cols = cols
	}

	// dW[f, tap] = sum_pos gmat[pos, f] * cols[pos, tap]  (= gmatᵀ × cols)
	dw := getScratch(c.OutC, patch)
	gemmTransAInto(gmat.Data, c.cols.Data, dw.Data, n*oh*ow, c.OutC, patch)
	if err := c.w.grad().AddScaled(dw, 1); err != nil {
		return nil, err
	}
	releaseScratch(dw)

	if !needDX {
		releaseScratch(gmat)
		releaseScratch(c.cols)
		c.cols = nil
		return nil, nil
	}

	// dCols = gmat × wMat  → scatter back (col2im).
	wMat, err := c.w.W.Reshape(c.OutC, patch)
	if err != nil {
		return nil, err
	}
	dcols := getScratch(n*oh*ow, patch)
	gemmInto(gmat.Data, wMat.Data, dcols.Data, n*oh*ow, c.OutC, patch)
	releaseScratch(gmat)
	dx := NewTensor(n, c.InC, h, w)
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
	releaseScratch(dcols)
	releaseScratch(c.cols)
	c.cols = nil
	return dx, nil
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// MaxPool2D is a max pooling layer with square window and equal stride,
// over [N, C, H, W].
type MaxPool2D struct {
	K      int
	argmax []int
	lastIn []int
}

// NewMaxPool2D builds a pool layer with window and stride k.
func NewMaxPool2D(k int) (*MaxPool2D, error) {
	if k <= 1 {
		return nil, fmt.Errorf("nn: maxpool window must be > 1, got %d", k)
	}
	return &MaxPool2D{K: k}, nil
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("nn: maxpool expects [N,C,H,W], got %v", x.Shape)
	}
	n, ch, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := h/m.K, w/m.K
	if oh == 0 || ow == 0 {
		return nil, fmt.Errorf("nn: maxpool input %dx%d smaller than window %d", h, w, m.K)
	}
	m.lastIn = append(m.lastIn[:0], x.Shape...)
	y := NewTensor(n, ch, oh, ow)
	if cap(m.argmax) < len(y.Data) {
		m.argmax = make([]int, len(y.Data))
	}
	m.argmax = m.argmax[:len(y.Data)]
	for i := 0; i < n*ch; i++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := math.Inf(-1)
				bestIdx := 0
				for ky := 0; ky < m.K; ky++ {
					for kx := 0; kx < m.K; kx++ {
						idx := (i*h+(oy*m.K+ky))*w + ox*m.K + kx
						if v := x.Data[idx]; v > best {
							best = v
							bestIdx = idx
						}
					}
				}
				o := (i*oh+oy)*ow + ox
				y.Data[o] = best
				m.argmax[o] = bestIdx
			}
		}
	}
	return y, nil
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *Tensor) (*Tensor, error) {
	if len(m.lastIn) == 0 {
		return nil, fmt.Errorf("nn: maxpool backward before forward")
	}
	dx := NewTensor(m.lastIn...)
	for o, src := range m.argmax {
		dx.Data[src] += grad.Data[o]
	}
	return dx, nil
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

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
