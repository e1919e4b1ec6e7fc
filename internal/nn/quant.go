package nn

import (
	"fmt"
)

// QuantInt8 is the quantized-inference mode: static symmetric int8
// weights with per-output-channel scales, dynamic per-tensor int8
// activations, float64 layer boundaries.
const QuantInt8 = "int8"

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

// QuantizeSequential builds an inference-only int8 copy of a Sequential:
// Dense layers quantize; Dropout disappears (identity at inference);
// activations and Flatten are rebuilt fresh so the copy never clobbers
// the float model's backward caches; every other layer (Conv2D, Conv3D,
// LSTM, BatchNorm) is shared read-only in float64. Convs stay float
// because a pilot's are too narrow for int8 to pay: with the AVX2
// float64 kernels a patch-72 conv at batch 32 ran 1.7× faster in float64
// than in int8 at 16 filters and 1.04× at 64, and 1.09× slower only at
// 128, while every pilot builds its convs with 8 and 16 filters.
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
