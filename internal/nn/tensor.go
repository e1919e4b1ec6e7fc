// Package nn is a from-scratch neural-network library standing in for the
// Keras/TensorFlow stack DonkeyCar uses: dense tensors, convolutional and
// recurrent layers, losses, the Adam optimizer, a mini-batch trainer and
// parameter serialization. It is deliberately CPU-only and deterministic
// given a seed; multi-core parallelism is used inside the heavy kernels.
//
// Sequential.Clone is the one way to copy a model. A clone gets fresh
// slices for each param's values and shape, with its name and Frozen
// flag, and each layer's config: a Dropout's seed without its generator,
// so the clone's masks start where a freshly built layer's would, and a
// BatchNorm's running statistics, which are frozen params. It copies no
// gradient, scratch buffer or forward cache and shares no slice with its
// source, so the two train and infer independently.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float64 array with a shape.
type Tensor struct {
	Shape []int
	Data  []float64
}

// NewTensor allocates a zeroed tensor of the given shape.
func NewTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("nn: invalid tensor dim %d in %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape; the data is not
// copied. The length must match the shape volume.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("nn: data length %d does not match shape %v", len(data), shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}, nil
}

// Size returns the number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Dim returns the i-th shape dimension.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float64, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Reshape returns a view with a new shape of equal volume.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		return nil, fmt.Errorf("nn: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}, nil
}

// Zero resets all elements to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// RandNormal fills the tensor with N(0, std) noise from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
}

// SameShape reports whether two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// AddScaled adds alpha*o element-wise into t.
func (t *Tensor) AddScaled(o *Tensor, alpha float64) error {
	if len(t.Data) != len(o.Data) {
		return fmt.Errorf("nn: AddScaled size mismatch %d vs %d", len(t.Data), len(o.Data))
	}
	for i := range t.Data {
		t.Data[i] += alpha * o.Data[i]
	}
	return nil
}

// MaxAbs returns the largest absolute element, 0 for empty tensors.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func errMatMulShape(a, b *Tensor) error {
	return fmt.Errorf("nn: MatMul needs 2-D tensors, got %v × %v", a.Shape, b.Shape)
}

func errMatMulInner(k, k2 int) error {
	return fmt.Errorf("nn: MatMul inner dims %d vs %d", k, k2)
}

// MatMul computes C = A×B for 2-D tensors A [m,k] and B [k,n], writing into
// a new tensor. The blocked kernel in gemm.go does the work; MatMulRef is
// the naive reference it is cross-checked against.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, errMatMulShape(a, b)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, errMatMulInner(k, k2)
	}
	c := NewTensor(m, n)
	gemmInto(a.Data, b.Data, c.Data, m, k, n)
	return c, nil
}

// MatMulTransA computes C = Aᵀ×B for A [k,m], B [k,n] → C [m,n].
func MatMulTransA(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, errMatMulShape(a, b)
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, errMatMulInner(k, k2)
	}
	c := NewTensor(m, n)
	gemmTransAInto(a.Data, b.Data, c.Data, k, m, n)
	return c, nil
}

// MatMulTransB computes C = A×Bᵀ for A [m,k], B [n,k] → C [m,n].
func MatMulTransB(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, errMatMulShape(a, b)
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, errMatMulInner(k, k2)
	}
	c := NewTensor(m, n)
	gemmTransBInto(a.Data, b.Data, c.Data, m, k, n)
	return c, nil
}
