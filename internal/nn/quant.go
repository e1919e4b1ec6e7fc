package nn

import (
	"fmt"
)

// QuantInt8 is the quantized-inference mode: static symmetric int8
// weights with per-output-channel scales, dynamic per-tensor int8
// activations, float64 layer boundaries.
const QuantInt8 = "int8"

// Conv2D layers are only worth quantizing when their lowered GEMM is
// big enough: below these bounds the per-row kernel setup and the
// activation-quantization pass over the im2col matrix cost more than
// the cheaper multiplies save. With the AVX2 float64 kernels, a patch-72
// conv at batch 32 ran 1.7× faster in float64 than in int8 at 16
// filters and 1.04× at 64, and 1.09× slower at 128, so narrower convs
// stay float64.
const (
	qConvMinPatch = 64
	qConvMinOutC  = 64
)

// QDense is the int8 inference twin of a Dense layer: weights quantized
// once (per-output-channel scales, round-to-nearest-even), activations
// quantized per batch with a dynamic per-tensor scale, accumulation in
// exact int32 through the int8 kernel, dequantized back to
// float64 with the bias added. Inference only: Backward errors.
type QDense struct {
	In, Out int

	q    *QuantizedMatrix
	bias []float64

	// Scratch reused across forward passes; layers are driven from one
	// goroutine, like every other layer in this package.
	au     []uint8
	rowSum []int32
	acc    []int32
}

// NewQDense quantizes a trained Dense layer. The [In, Out] weight is
// transposed once into the per-output-column layout.
func NewQDense(d *Dense) (*QDense, error) {
	q, err := Quantize(d.w.W)
	if err != nil {
		return nil, err
	}
	bias := make([]float64, d.Out)
	copy(bias, d.b.W.Data)
	return &QDense{In: d.In, Out: d.Out, q: q, bias: bias}, nil
}

func (d *QDense) grow(m int) {
	if cap(d.au) < m*d.In {
		d.au = make([]uint8, m*d.In)
	}
	if cap(d.rowSum) < m {
		d.rowSum = make([]int32, m)
	}
	if cap(d.acc) < m*d.Out {
		d.acc = make([]int32, m*d.Out)
	}
	d.au, d.rowSum, d.acc = d.au[:m*d.In], d.rowSum[:m], d.acc[:m*d.Out]
}

// Forward implements Layer.
func (d *QDense) Forward(x *Tensor, train bool) (*Tensor, error) {
	return d.forward(x, nil, train)
}

// forward implements epilogueFuser so Sequential fuses a following ReLU
// or Tanh into the dequantization pass, mirroring Dense.
func (d *QDense) forward(x *Tensor, act fusedActivation, train bool) (*Tensor, error) {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		return nil, fmt.Errorf("nn: qdense expects [N,%d], got %v", d.In, x.Shape)
	}
	m := x.Shape[0]
	d.grow(m)
	scale := quantizeActs(x.Data, m, d.In, d.au, d.rowSum)
	qgemmBiased(d.au, d.rowSum, m, d.q, d.acc)
	y := NewTensor(m, d.Out)
	var epi func(lo, hi int)
	if act != nil {
		epi = act.fuseInto(y)
	}
	n := d.Out
	work := func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			arow := d.acc[i*n : (i+1)*n]
			yrow := y.Data[i*n : (i+1)*n]
			for j, v := range arow {
				yrow[j] = float64(v)*(scale*d.q.Scale[j]) + d.bias[j]
			}
		}
		if epi != nil {
			epi(i0*n, i1*n)
		}
	}
	parallelFor(m, m*n, work)
	return y, nil
}

// Backward implements Layer: quantized layers are inference-only.
func (d *QDense) Backward(grad *Tensor) (*Tensor, error) {
	return nil, fmt.Errorf("nn: qdense is inference-only")
}

// Params implements Layer. The quantized copy carries no trainable
// parameters; the float model it was built from remains the source of
// truth for training and checkpoints.
func (d *QDense) Params() []*Param { return nil }

// QConv2D is the int8 inference twin of a Conv2D: the float im2col
// lowering is kept (it is a data movement, not arithmetic), the matrix
// multiply runs through the int8 kernel with per-filter scales.
type QConv2D struct {
	src *Conv2D
	q   *QuantizedMatrix

	au     []uint8
	rowSum []int32
	acc    []int32
}

// NewQConv2D quantizes a trained Conv2D layer: each filter's [InC·K·K]
// tap vector becomes one output column with its own scale.
func NewQConv2D(c *Conv2D) (*QConv2D, error) {
	patch := c.InC * c.K * c.K
	rows := make([][]float64, c.OutC)
	for f := 0; f < c.OutC; f++ {
		rows[f] = c.w.W.Data[f*patch : (f+1)*patch]
	}
	q, err := quantizeRows(rows, patch)
	if err != nil {
		return nil, err
	}
	return &QConv2D{src: c, q: q}, nil
}

// Forward implements Layer.
func (c *QConv2D) Forward(x *Tensor, train bool) (*Tensor, error) {
	return c.forward(x, nil, train)
}

// forward implements epilogueFuser. Each image is lowered by Conv2D's
// own routine, and dequantized, biased, laid out [F, oh, ow] and run
// through the fused activation on one worker while its block is
// cache-hot, mirroring Conv2D. The activation scale is per call, so
// quantization and the int8 product run over the whole batch.
func (c *QConv2D) forward(x *Tensor, act fusedActivation, train bool) (*Tensor, error) {
	src := c.src
	if len(x.Shape) != 4 || x.Shape[1] != src.InC {
		return nil, fmt.Errorf("nn: qconv2d expects [N,%d,H,W], got %v", src.InC, x.Shape)
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow, err := src.outDims(h, w)
	if err != nil {
		return nil, err
	}
	pos, patch, nf := oh*ow, src.InC*src.K*src.K, src.OutC
	m := n * pos
	cols := getScratch(m, patch)
	parallelFor(n, m*patch, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			src.lower(x.Data, i, h, w, 0, oh, ow, cols.Data[i*pos*patch:(i+1)*pos*patch])
		}
	})
	if cap(c.au) < m*patch {
		c.au = make([]uint8, m*patch)
	}
	if cap(c.rowSum) < m {
		c.rowSum = make([]int32, m)
	}
	if cap(c.acc) < m*nf {
		c.acc = make([]int32, m*nf)
	}
	c.au, c.rowSum, c.acc = c.au[:m*patch], c.rowSum[:m], c.acc[:m*nf]
	scale := quantizeActs(cols.Data, m, patch, c.au, c.rowSum)
	releaseScratch(cols)
	qgemmBiased(c.au, c.rowSum, m, c.q, c.acc)
	y := NewTensor(n, nf, oh, ow)
	var epi func(lo, hi int)
	if act != nil {
		epi = act.fuseInto(y)
	}
	bias := src.b.W.Data
	parallelFor(n, m*nf, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			acc := c.acc[i*pos*nf : (i+1)*pos*nf]
			yi := y.Data[i*nf*pos : (i+1)*nf*pos]
			for f, bf := range bias {
				yf := yi[f*pos : (f+1)*pos]
				for p := range yf {
					yf[p] = float64(acc[p*nf+f])*(scale*c.q.Scale[f]) + bf
				}
			}
			if epi != nil {
				epi(i*nf*pos, (i+1)*nf*pos)
			}
		}
	})
	return y, nil
}

// Backward implements Layer: quantized layers are inference-only.
func (c *QConv2D) Backward(grad *Tensor) (*Tensor, error) {
	return nil, fmt.Errorf("nn: qconv2d is inference-only")
}

// Params implements Layer (see QDense.Params).
func (c *QConv2D) Params() []*Param { return nil }

// QuantizeSequential builds an inference-only int8 copy of a Sequential:
// Dense layers always quantize; Conv2D layers quantize when their
// lowered GEMM is large enough to win; Dropout disappears (identity at
// inference); activations and Flatten are rebuilt fresh so the copy
// never clobbers the float model's backward caches; stateful
// float layers (BatchNorm, LSTM, Conv3D) are shared read-only.
// TimeDistributed wrappers quantize their inner encoder recursively.
func QuantizeSequential(s *Sequential, mode string) (*Sequential, error) {
	if mode != QuantInt8 {
		return nil, fmt.Errorf("nn: unknown quantization mode %q (have %q)", mode, QuantInt8)
	}
	layers, n, err := quantizeLayers(s.Layers)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("nn: model has no quantizable layers")
	}
	return NewSequential(layers...), nil
}

func quantizeLayers(src []Layer) ([]Layer, int, error) {
	out := make([]Layer, 0, len(src))
	quantized := 0
	for _, l := range src {
		switch v := l.(type) {
		case *Dense:
			qd, err := NewQDense(v)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, qd)
			quantized++
		case *Conv2D:
			if v.InC*v.K*v.K < qConvMinPatch || v.OutC < qConvMinOutC {
				out = append(out, v) // shared: forward caches are benign single-goroutine
				continue
			}
			qc, err := NewQConv2D(v)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, qc)
			quantized++
		case *TimeDistributed:
			inner, n, err := quantizeLayers(v.Inner.Layers)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, NewTimeDistributed(NewSequential(inner...), v.StepShape...))
			quantized += n
		case *Dropout:
			// Identity at inference; dropping it saves the dispatch.
		case *ReLU:
			out = append(out, &ReLU{})
		case *Tanh:
			out = append(out, &Tanh{})
		case *Flatten:
			out = append(out, &Flatten{})
		default:
			out = append(out, l)
		}
	}
	return out, quantized, nil
}
