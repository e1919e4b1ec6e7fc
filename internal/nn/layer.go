package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is a trainable tensor with its accumulated gradient. Frozen
// params (e.g. batch-norm running statistics) are serialized with the
// model but skipped by optimizers.
type Param struct {
	Name string
	W    *Tensor
	// Grad is nil until the param first trains: the first backward pass
	// or optimizer step allocates it zeroed, so a model that only runs
	// inference (a loaded checkpoint that serves, evaluates or teaches)
	// never holds gradient memory.
	Grad   *Tensor
	Frozen bool
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: NewTensor(shape...)}
}

// grad returns the gradient, allocating it zeroed on first use.
func (p *Param) grad() *Tensor {
	if p.Grad == nil {
		p.Grad = NewTensor(p.W.Shape...)
	}
	return p.Grad
}

// ZeroGrad clears the accumulated gradient. A param that has not
// trained has none to clear.
func (p *Param) ZeroGrad() {
	if p.Grad != nil {
		p.Grad.Zero()
	}
}

// Layer is one differentiable stage. Forward caches whatever Backward
// needs; Backward consumes the upstream gradient and returns the gradient
// with respect to the layer input, accumulating parameter gradients.
// Layers are not safe for concurrent use; the trainer drives them from one
// goroutine (kernels parallelize internally).
type Layer interface {
	Forward(x *Tensor, train bool) (*Tensor, error)
	Backward(grad *Tensor) (*Tensor, error)
	Params() []*Param
}

// Dense is a fully connected layer: y = xW + b for x [N, in].
type Dense struct {
	In, Out int
	w, b    *Param
	lastX   *Tensor
}

// NewDense builds a dense layer with He-initialized weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, w: newParam("w", in, out), b: newParam("b", 1, out)}
	d.w.W.RandNormal(rng, math.Sqrt(2.0/float64(in)))
	return d
}

// Forward implements Layer: one fused GEMM computes y = xW + b, with the
// bias folded into the kernel's row initialization.
func (d *Dense) Forward(x *Tensor, train bool) (*Tensor, error) {
	return d.forward(x, nil, train)
}

// forward runs the fused kernel, optionally applying an activation
// epilogue to each output row range while it is cache-hot.
func (d *Dense) forward(x *Tensor, act fusedActivation, train bool) (*Tensor, error) {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		return nil, fmt.Errorf("nn: dense expects [N,%d], got %v", d.In, x.Shape)
	}
	d.lastX = x
	n := x.Shape[0]
	y := NewTensor(n, d.Out)
	var epi func(lo, hi int)
	if act != nil {
		epi = act.fuseInto(y)
	}
	gemmBiasInto(x.Data, d.w.W.Data, d.b.W.Data, y.Data, n, d.In, d.Out, epi)
	return y, nil
}

// Backward implements Layer.
func (d *Dense) Backward(grad *Tensor) (*Tensor, error) {
	if err := d.backwardParamsOnly(grad); err != nil {
		return nil, err
	}
	// dx = grad Wᵀ
	return MatMulTransB(grad, d.w.W)
}

// backwardParamsOnly implements noInputGrad: dW += xᵀ grad and db += column
// sums, without the dx GEMM a first-in-Sequential layer would discard.
func (d *Dense) backwardParamsOnly(grad *Tensor) error {
	if d.lastX == nil {
		return fmt.Errorf("nn: dense backward before forward")
	}
	n := grad.Shape[0]
	dw := getScratch(d.In, d.Out)
	gemmTransAInto(d.lastX.Data, grad.Data, dw.Data, n, d.In, d.Out)
	if err := d.w.grad().AddScaled(dw, 1); err != nil {
		return err
	}
	releaseScratch(dw)
	db := d.b.grad().Data
	for i := 0; i < n; i++ {
		row := grad.Data[i*d.Out : (i+1)*d.Out]
		for j := 0; j < d.Out; j++ {
			db[j] += row[j]
		}
	}
	return nil
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// fusedActivation is implemented by activations that can run as a GEMM
// epilogue: fuseInto prepares the layer's backward caches for output y
// and returns a function that transforms y's flat index range [lo, hi)
// in place. Concurrent callers receive disjoint ranges.
type fusedActivation interface {
	Layer
	fuseInto(y *Tensor) func(lo, hi int)
}

// epilogueFuser is implemented by layers (Dense, Conv2D) that can apply a
// fusedActivation to their output without a separate pass. train is
// Forward's flag: an inference pass may skip caches only backward reads.
type epilogueFuser interface {
	Layer
	forward(x *Tensor, act fusedActivation, train bool) (*Tensor, error)
}

// noInputGrad is implemented by layers (Dense, Conv2D) that can accumulate
// parameter gradients without materializing the input gradient. Sequential
// uses it for its first layer, whose input gradient is always discarded —
// for a leading convolution that halves the backward cost.
type noInputGrad interface {
	Layer
	backwardParamsOnly(grad *Tensor) error
}

// ReLU is the rectified-linear activation. A value is kept unless it is
// below zero, so −0 and NaN pass through; a dropped value becomes +0.
// Both passes select bits through an all-ones or zero mask, without a
// branch per element.
type ReLU struct{ mask []bool }

// Forward implements Layer.
func (r *ReLU) Forward(x *Tensor, train bool) (*Tensor, error) {
	y := x.Clone()
	r.fuseInto(y)(0, len(y.Data))
	return y, nil
}

// fuseInto implements fusedActivation.
func (r *ReLU) fuseInto(y *Tensor) func(lo, hi int) {
	if cap(r.mask) < len(y.Data) {
		r.mask = make([]bool, len(y.Data))
	}
	r.mask = r.mask[:len(y.Data)]
	return func(lo, hi int) {
		ys, keep := y.Data[lo:hi], r.mask[lo:hi]
		for i, v := range ys {
			k := !(v < 0)
			keep[i] = k
			ys[i] = math.Float64frombits(math.Float64bits(v) & keepBits(k))
		}
	}
}

// keepBits is the select mask for a kept (all ones) or dropped (zero)
// element; the compiler turns it into a conditional move.
func keepBits(keep bool) uint64 {
	var m uint64
	if keep {
		m = ^uint64(0)
	}
	return m
}

// Backward implements Layer. The upstream gradient is masked in place,
// across workers: every producer in this package hands each backward
// gradient to exactly one consumer, so reusing the buffer saves a clone
// per batch.
func (r *ReLU) Backward(grad *Tensor) (*Tensor, error) {
	if len(r.mask) != len(grad.Data) {
		return nil, fmt.Errorf("nn: relu backward size mismatch")
	}
	parallelFor(len(grad.Data), len(grad.Data), func(lo, hi int) {
		g, keep := grad.Data[lo:hi], r.mask[lo:hi]
		for i, k := range keep {
			g[i] = math.Float64frombits(math.Float64bits(g[i]) & keepBits(k))
		}
	})
	return grad, nil
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Tanh activation, used on steering heads to bound outputs to [-1, 1].
type Tanh struct{ lastY *Tensor }

// Forward implements Layer.
func (t *Tanh) Forward(x *Tensor, train bool) (*Tensor, error) {
	y := x.Clone()
	t.fuseInto(y)(0, len(y.Data))
	return y, nil
}

// fuseInto implements fusedActivation.
func (t *Tanh) fuseInto(y *Tensor) func(lo, hi int) {
	t.lastY = y
	return func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y.Data[i] = math.Tanh(y.Data[i])
		}
	}
}

// Backward implements Layer. Scales the upstream gradient in place (see
// ReLU.Backward for the ownership argument).
func (t *Tanh) Backward(grad *Tensor) (*Tensor, error) {
	if t.lastY == nil || len(t.lastY.Data) != len(grad.Data) {
		return nil, fmt.Errorf("nn: tanh backward size mismatch")
	}
	for i := range grad.Data {
		y := t.lastY.Data[i]
		grad.Data[i] *= 1 - y*y
	}
	return grad, nil
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Dropout zeroes a fraction of activations during training, scaling the
// survivors (inverted dropout). It is the identity at inference time.
type Dropout struct {
	Rate float64
	seed int64
	rng  *rand.Rand // seeded from seed at the first training forward
	mask []float64
}

// NewDropout builds a dropout layer with its own RNG stream. The stream's
// seed is drawn from rng now, so rng and every layer built after this one
// see the same draws whether or not the layer ever trains; the stream
// itself is seeded at the first training forward with a nonzero rate, so
// a layer that only infers never builds one.
func NewDropout(rate float64, rng *rand.Rand) (*Dropout, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("nn: dropout rate must be in [0,1), got %g", rate)
	}
	return &Dropout{Rate: rate, seed: rng.Int63()}, nil
}

// Forward implements Layer.
func (d *Dropout) Forward(x *Tensor, train bool) (*Tensor, error) {
	if !train || d.Rate == 0 {
		d.mask = nil
		return x, nil
	}
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(d.seed))
	}
	y := x.Clone()
	if cap(d.mask) < len(y.Data) {
		d.mask = make([]float64, len(y.Data))
	}
	d.mask = d.mask[:len(y.Data)]
	scale := 1 / (1 - d.Rate)
	for i := range y.Data {
		if d.rng.Float64() < d.Rate {
			d.mask[i] = 0
			y.Data[i] = 0
		} else {
			d.mask[i] = scale
			y.Data[i] *= scale
		}
	}
	return y, nil
}

// Backward implements Layer. Scales the upstream gradient in place (see
// ReLU.Backward for the ownership argument).
func (d *Dropout) Backward(grad *Tensor) (*Tensor, error) {
	if d.mask == nil {
		return grad, nil
	}
	if len(d.mask) != len(grad.Data) {
		return nil, fmt.Errorf("nn: dropout backward size mismatch")
	}
	for i := range grad.Data {
		grad.Data[i] *= d.mask[i]
	}
	return grad, nil
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Flatten reshapes [N, ...] to [N, prod(...)], remembering the input shape
// for the backward pass.
type Flatten struct{ lastShape []int }

// Forward implements Layer.
func (f *Flatten) Forward(x *Tensor, train bool) (*Tensor, error) {
	if len(x.Shape) < 2 {
		return nil, fmt.Errorf("nn: flatten needs at least 2 dims, got %v", x.Shape)
	}
	f.lastShape = append(f.lastShape[:0], x.Shape...)
	n := x.Shape[0]
	return x.Reshape(n, len(x.Data)/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *Tensor) (*Tensor, error) {
	return grad.Reshape(f.lastShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Sequential chains layers and implements the Model interface the trainer
// consumes.
type Sequential struct{ Layers []Layer }

// NewSequential builds a model from layers in order.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward implements Model. Dense/Conv2D layers immediately followed by a
// ReLU or Tanh run as one fused kernel: the activation is applied as a
// GEMM epilogue (filling the activation layer's backward caches), saving
// a full clone-and-rewrite pass over the activations.
func (s *Sequential) Forward(x *Tensor, train bool) (*Tensor, error) {
	var err error
	for i := 0; i < len(s.Layers); i++ {
		if f, ok := s.Layers[i].(epilogueFuser); ok && i+1 < len(s.Layers) {
			if act, ok := s.Layers[i+1].(fusedActivation); ok {
				x, err = f.forward(x, act, train)
				if err != nil {
					return nil, fmt.Errorf("layer %d: %w", i, err)
				}
				i++
				continue
			}
		}
		x, err = s.Layers[i].Forward(x, train)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return x, nil
}

// Backward implements Model. The first layer's input gradient is never
// consumed, so layers implementing noInputGrad skip computing it there.
func (s *Sequential) Backward(grad *Tensor) error {
	var err error
	for i := len(s.Layers) - 1; i >= 0; i-- {
		if i == 0 {
			if l, ok := s.Layers[0].(noInputGrad); ok {
				if err := l.backwardParamsOnly(grad); err != nil {
					return fmt.Errorf("layer 0: %w", err)
				}
				return nil
			}
		}
		grad, err = s.Layers[i].Backward(grad)
		if err != nil {
			return fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return nil
}

// Params implements Model.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
