package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDropoutTrainEvalScaling pins inverted-dropout semantics: eval is
// the exact identity (same tensor, no scaling), train zeroes a fraction
// and scales survivors by 1/(1-rate) so the activation expectation is
// preserved, and backward applies the identical mask.
func TestDropoutTrainEvalScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, err := NewDropout(0.4, rng)
	if err != nil {
		t.Fatal(err)
	}

	x := NewTensor(64, 32)
	for i := range x.Data {
		x.Data[i] = 1
	}

	// Eval: identity, and not merely equal — the same backing array.
	y, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if &y.Data[0] != &x.Data[0] {
		t.Fatal("eval-mode dropout must pass the tensor through unchanged")
	}
	g := NewTensor(64, 32)
	g.Fill(2)
	gb, err := d.Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gb.Data {
		if gb.Data[i] != 2 {
			t.Fatal("eval-mode dropout backward must be the identity")
		}
	}

	// Train: survivors scaled by exactly 1/(1-rate), the rest zero.
	yt, err := d.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	scale := 1 / (1 - d.Rate)
	kept := 0
	for i, v := range yt.Data {
		switch v {
		case 0:
		case scale:
			kept++
		default:
			t.Fatalf("element %d = %v, want 0 or %v", i, v, scale)
		}
	}
	// With 2048 draws at keep-prob 0.6 the kept count concentrates hard
	// around 1229; a 5-sigma band is [1118, 1340].
	if kept < 1118 || kept > 1340 {
		t.Fatalf("kept %d of %d, far from keep-prob 0.6", kept, len(yt.Data))
	}
	// Expectation preservation: mean of the scaled output stays near 1.
	mean := 0.0
	for _, v := range yt.Data {
		mean += v
	}
	mean /= float64(len(yt.Data))
	if math.Abs(mean-1) > 0.1 {
		t.Fatalf("train-mode mean = %v, want ~1 (inverted dropout)", mean)
	}

	// Backward uses the identical mask: zeroed where forward zeroed,
	// scaled where forward scaled.
	g2 := NewTensor(64, 32)
	g2.Fill(1)
	gt, err := d.Backward(g2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gt.Data {
		fwdKept := yt.Data[i] != 0
		if fwdKept && gt.Data[i] != scale {
			t.Fatalf("grad[%d] = %v, want %v where forward kept", i, gt.Data[i], scale)
		}
		if !fwdKept && gt.Data[i] != 0 {
			t.Fatalf("grad[%d] = %v, want 0 where forward dropped", i, gt.Data[i])
		}
	}
}

// TestDropoutZeroRate verifies rate 0 is a true no-op in both modes.
func TestDropoutZeroRate(t *testing.T) {
	d, err := NewDropout(0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	x := NewTensor(4, 4)
	x.Fill(3)
	for _, train := range []bool{false, true} {
		y, err := d.Forward(x, train)
		if err != nil {
			t.Fatal(err)
		}
		for i := range y.Data {
			if y.Data[i] != 3 {
				t.Fatalf("train=%v: rate-0 dropout changed the input", train)
			}
		}
	}
}

// newEagerDropout is NewDropout as it was before the layer's stream was
// seeded lazily, kept verbatim as the reference.
func newEagerDropout(rate float64, rng *rand.Rand) (*Dropout, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("nn: dropout rate must be in [0,1), got %g", rate)
	}
	return &Dropout{Rate: rate, rng: rand.New(rand.NewSource(rng.Int63()))}, nil
}

// TestDropoutLazySeedBitwise checks that seeding the stream at the first
// training forward changes no bit: from one parent stream, the eager and
// the lazy constructor leave the parent at the same draw and drop the
// same units, scaled the same, over several training forwards with
// inference forwards between them. A layer that only infers, or trains
// at rate 0, never builds a generator.
func TestDropoutLazySeedBitwise(t *testing.T) {
	eagerParent, lazyParent := rand.New(rand.NewSource(77)), rand.New(rand.NewSource(77))
	eager, err := newEagerDropout(0.3, eagerParent)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewDropout(0.3, lazyParent)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.rng != nil {
		t.Fatal("NewDropout built its generator before the first training forward")
	}
	if a, b := eagerParent.Int63(), lazyParent.Int63(); a != b {
		t.Fatalf("parent streams diverged after construction: %d vs %d", a, b)
	}
	x := NewTensor(4, 33)
	for i := range x.Data {
		x.Data[i] = float64(i%7) - 2.5
	}
	for pass := 0; pass < 4; pass++ {
		for _, d := range []*Dropout{eager, lazy} {
			if _, err := d.Forward(x, false); err != nil {
				t.Fatal(err)
			}
		}
		ye, err := eager.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		yl, err := lazy.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		dropped := 0
		for i := range ye.Data {
			if math.Float64bits(eager.mask[i]) != math.Float64bits(lazy.mask[i]) ||
				math.Float64bits(ye.Data[i]) != math.Float64bits(yl.Data[i]) {
				t.Fatalf("pass %d unit %d: eager mask %g out %g, lazy mask %g out %g",
					pass, i, eager.mask[i], ye.Data[i], lazy.mask[i], yl.Data[i])
			}
			if lazy.mask[i] == 0 {
				dropped++
			}
		}
		if dropped == 0 || dropped == len(ye.Data) {
			t.Fatalf("pass %d dropped %d of %d units; the comparison has no teeth", pass, dropped, len(ye.Data))
		}
	}

	rng := rand.New(rand.NewSource(5))
	infer, err := NewDropout(0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := NewDropout(0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := infer.Forward(x, false); err != nil {
			t.Fatal(err)
		}
		if _, err := zero.Forward(x, true); err != nil {
			t.Fatal(err)
		}
	}
	if infer.rng != nil || zero.rng != nil {
		t.Fatal("a dropout that never trained at a nonzero rate built a generator")
	}
}
