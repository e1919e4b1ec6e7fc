package nn

import (
	"math"
	"testing"
)

// cloneTestModel covers what the pilots do not: a Naive Conv2D and a
// BatchNorm with non-default momentum and epsilon, beside Dropout, the
// activations, Flatten and Dense.
func cloneTestModel(t *testing.T) *Sequential {
	t.Helper()
	r := rng(31)
	conv, err := NewConv2D(1, 3, 3, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	conv.Naive = true
	bn, err := NewBatchNorm(3)
	if err != nil {
		t.Fatal(err)
	}
	bn.Momentum, bn.Eps = 0.5, 1e-3
	drop, err := NewDropout(0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	return NewSequential(conv, &ReLU{}, bn, &Flatten{}, NewDense(3*4*4, 8, r), &Tanh{}, drop, NewDense(8, 2, r))
}

func cloneTestData() Dataset {
	r := rng(32)
	x, y := NewTensor(16, 1, 6, 6), NewTensor(16, 2)
	x.RandNormal(r, 1)
	y.RandNormal(r, 0.5)
	return Dataset{X: x, Y: y}
}

func trainOnce(t *testing.T, m Model) {
	t.Helper()
	opt, err := NewAdam(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m, cloneTestData(), MSE{}, opt, TrainConfig{Epochs: 1, BatchSize: 4, Seed: 5}); err != nil {
		t.Fatal(err)
	}
}

// sameModelBits compares params by name, shape, Frozen flag and bits.
func sameModelBits(t *testing.T, what string, a, b []*Param) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d params vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Frozen != b[i].Frozen || !a[i].W.SameShape(b[i].W) {
			t.Fatalf("%s: param %d is %s frozen=%v %v vs %s frozen=%v %v", what, i,
				a[i].Name, a[i].Frozen, a[i].W.Shape, b[i].Name, b[i].Frozen, b[i].W.Shape)
		}
		for j := range a[i].W.Data {
			if math.Float64bits(a[i].W.Data[j]) != math.Float64bits(b[i].W.Data[j]) {
				t.Fatalf("%s: param %d (%s)[%d] %g vs %g", what, i, a[i].Name, j, a[i].W.Data[j], b[i].W.Data[j])
			}
		}
	}
}

// TestSequentialCloneBitwise: a clone of a trained model equals the model
// built by the same constructors and given the same weights, layer
// configs included, trains one epoch to the same bits, and shares no
// value or shape slice with its source. An int8 layer is an error.
func TestSequentialCloneBitwise(t *testing.T) {
	src := cloneTestModel(t)
	trainOnce(t, src) // moves weights and running statistics, runs the dropout generator
	c, err := src.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ref := cloneTestModel(t)
	for i, p := range ref.Params() {
		copy(p.W.Data, src.Params()[i].W.Data)
	}
	sameModelBits(t, "clone vs rebuilt", c.Params(), ref.Params())
	if !c.Layers[0].(*Conv2D).Naive {
		t.Fatal("clone lost Conv2D.Naive")
	}
	if bn := c.Layers[2].(*BatchNorm); bn.Momentum != 0.5 || bn.Eps != 1e-3 || bn.Features != 3 {
		t.Fatalf("clone's batchnorm config %+v", bn)
	}
	if d := c.Layers[6].(*Dropout); d.seed != ref.Layers[6].(*Dropout).seed || d.rng != nil {
		t.Fatalf("clone's dropout seed %d generator %v, want seed %d and no generator", d.seed, d.rng, ref.Layers[6].(*Dropout).seed)
	}
	for i, p := range c.Params() {
		q := src.Params()[i]
		if &p.W.Data[0] == &q.W.Data[0] || &p.W.Shape[0] == &q.W.Shape[0] || p.Grad != nil {
			t.Fatalf("clone param %d shares a slice with its source or holds a gradient", i)
		}
	}

	before := snapshotParams(src)
	trainOnce(t, c)
	trainOnce(t, ref)
	sameModelBits(t, "after one epoch, clone vs rebuilt", c.Params(), ref.Params())
	sameModelBits(t, "source after training its clone", src.Params(), before)

	qd, err := NewQDense(NewDense(4, 2, rng(33)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSequential(&ReLU{}, qd).Clone(); err == nil {
		t.Fatal("cloned an int8 layer")
	}
}

// snapshotParams copies params' names, flags and values without Clone.
func snapshotParams(m Model) []*Param {
	var out []*Param
	for _, p := range m.Params() {
		w := &Tensor{Shape: p.W.Shape, Data: append([]float64(nil), p.W.Data...)}
		out = append(out, &Param{Name: p.Name, W: w, Frozen: p.Frozen})
	}
	return out
}
