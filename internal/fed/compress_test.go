package fed

import (
	"math"
	"testing"
)

func TestF16RoundTripExact(t *testing.T) {
	// Every value exactly representable in binary16 must survive untouched.
	exact := []float64{0, 1, -1, 0.5, 1.5, 2048, -2048, 65504, -65504,
		6.103515625e-05 /* min normal */, 5.960464477539063e-08 /* min subnormal */}
	for _, v := range exact {
		if got := f16Round(v); got != v {
			t.Fatalf("f16Round(%g) = %g, want exact", v, got)
		}
	}
}

func TestF16Saturates(t *testing.T) {
	for _, v := range []float64{1e6, 65520, 7e4, math.MaxFloat64} {
		if got := f16Round(v); got != 65504 {
			t.Fatalf("f16Round(%g) = %g, want saturation at 65504", v, got)
		}
		if got := f16Round(-v); got != -65504 {
			t.Fatalf("f16Round(%g) = %g, want -65504", -v, got)
		}
	}
	if got := f16Round(1e-12); got != 0 {
		t.Fatalf("f16Round(1e-12) = %g, want underflow to 0", got)
	}
}

func TestF16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and 1+2^-10; even mantissa
	// (1.0) wins. 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; the
	// even neighbor is 1+2^-9.
	if got := f16Round(1 + math.Pow(2, -11)); got != 1 {
		t.Fatalf("halfway-down case rounded to %g, want 1", got)
	}
	want := 1 + math.Pow(2, -9)
	if got := f16Round(1 + 3*math.Pow(2, -11)); got != want {
		t.Fatalf("halfway-up case rounded to %g, want %g", got, want)
	}
}

func TestF16Monotone(t *testing.T) {
	prev := math.Inf(-1)
	for v := -70000.0; v <= 70000; v += 13.7 {
		got := f16Round(v)
		if got < prev {
			t.Fatalf("f16Round not monotone at %g: %g < %g", v, got, prev)
		}
		prev = got
	}
}

func TestCodecByteAccounting(t *testing.T) {
	delta := [][]float64{make([]float64, 100), make([]float64, 60)}
	for i := range delta[0] {
		delta[0][i] = float64(i) * 0.01
	}
	for i := range delta[1] {
		delta[1][i] = -float64(i) * 0.02
	}

	raw := rawCodec{}
	if got := raw.EncodeDelta(delta, nil).WireBytes; got != 8*160 {
		t.Fatalf("raw upload %d bytes, want %d", got, 8*160)
	}
	if got := raw.BroadcastBytes(160); got != 8*160 {
		t.Fatalf("raw broadcast %d bytes, want %d", got, 8*160)
	}

	f16 := f16Codec{}
	if got := f16.EncodeDelta(delta, nil).WireBytes; got != 2*160 {
		t.Fatalf("fp16 upload %d bytes, want %d", got, 2*160)
	}
	if got := f16.BroadcastBytes(160); got != 4*160 {
		t.Fatalf("fp16 broadcast %d bytes, want %d", got, 4*160)
	}

	topk := topKCodec{frac: 0.1}
	// ceil(0.1*100)=10 and ceil(0.1*60)=6 entries at 6 bytes each, plus an
	// 8-byte header per tensor.
	want := int64(10*6+8) + int64(6*6+8)
	if got := topk.EncodeDelta(delta, nil).WireBytes; got != want {
		t.Fatalf("topk upload %d bytes, want %d", got, want)
	}
}

func TestTopKKeepsLargest(t *testing.T) {
	delta := [][]float64{{0.001, -5, 0.002, 3, -0.003, 0.004, 0.0, 2, -0.005, 0.006}}
	enc := topKCodec{frac: 0.3}.EncodeDelta(delta, nil)
	got := enc.Values[0]
	// ceil(0.3*10)=3 survivors: -5, 3, 2 (by magnitude); everything else 0.
	for i, v := range got {
		switch i {
		case 1, 3, 7:
			if v == 0 {
				t.Fatalf("top entry %d zeroed: %v", i, got)
			}
		default:
			if v != 0 {
				t.Fatalf("non-top entry %d kept: %v", i, got)
			}
		}
	}
}

func TestTopKErrorFeedback(t *testing.T) {
	// Round 1 drops the small tail into the residual; round 2's delta of
	// zeros must resurface it once it dominates.
	residual := [][]float64{make([]float64, 4)}
	round1 := [][]float64{{10, 0.5, 0.25, 0.125}}
	enc1 := topKCodec{frac: 0.25}.EncodeDelta(round1, residual)
	if enc1.Values[0][0] == 0 {
		t.Fatal("largest entry dropped in round 1")
	}
	if residual[0][1] == 0 {
		t.Fatal("dropped entry not kept as residual")
	}

	round2 := [][]float64{{0, 0, 0, 0}}
	enc2 := topKCodec{frac: 0.25}.EncodeDelta(round2, residual)
	if enc2.Values[0][1] == 0 {
		t.Fatalf("residual 0.5 not resurfaced in round 2: %v", enc2.Values[0])
	}
}

func TestTopKDeterministic(t *testing.T) {
	delta := [][]float64{{1, -1, 1, -1, 0.5, 0.5}}
	a := topKCodec{frac: 0.5}.EncodeDelta(delta, nil)
	b := topKCodec{frac: 0.5}.EncodeDelta(delta, nil)
	for i := range a.Values[0] {
		if math.Float64bits(a.Values[0][i]) != math.Float64bits(b.Values[0][i]) {
			t.Fatalf("tie-broken selection not deterministic at %d", i)
		}
	}
	if a.WireBytes != b.WireBytes {
		t.Fatal("wire bytes not deterministic")
	}
}

// TestTopKResidualShapeMismatch is the regression test for the codec
// shape-validation fix: a checkpoint hot-swap mid-run can resize the model
// under a live worker, so encodeDelta can be handed an error-feedback
// accumulator shaped for the old parameters. Before the fix it indexed
// residual[i][j] blindly and panicked; now a mismatched accumulator is
// rejected (treated as absent) and the encode proceeds feedback-free.
func TestTopKResidualShapeMismatch(t *testing.T) {
	c := topKCodec{frac: 0.5}
	delta := [][]float64{{1, -2, 3, -4}, {5, -6}}

	// Wrong per-tensor length (old model had smaller tensors).
	stale := [][]float64{{0.5, 0.5}, {0.5}}
	enc := c.EncodeDelta(delta, stale)
	want := c.EncodeDelta(delta, nil)
	for i := range want.Values {
		for j := range want.Values[i] {
			if enc.Values[i][j] != want.Values[i][j] {
				t.Fatalf("mismatched residual leaked into upload at [%d][%d]: %v", i, j, enc.Values)
			}
		}
	}
	// The stale accumulator must not be written back to either.
	if stale[0][0] != 0.5 || stale[1][0] != 0.5 {
		t.Fatalf("rejected residual was mutated: %v", stale)
	}

	// Wrong tensor count (old model had fewer tensors).
	if enc := c.EncodeDelta(delta, [][]float64{{0, 0, 0, 0}}); enc.WireBytes != want.WireBytes {
		t.Fatalf("short residual changed byte accounting: %d != %d", enc.WireBytes, want.WireBytes)
	}
}

// TestResidualForResetsOnShapeChange pins the worker-side half of the same
// fix: the accumulator allocated for one model shape must be replaced, not
// returned, once the delta shape changes.
func TestResidualForResetsOnShapeChange(t *testing.T) {
	w := &Worker{}
	c := topKCodec{frac: 0.5}
	first := w.residualFor(c, [][]float64{{1, 2}, {3}})
	first[0][0] = 0.25
	if got := w.residualFor(c, [][]float64{{1, 2}, {3}}); got[0][0] != 0.25 {
		t.Fatal("matching-shape accumulator was not reused")
	}
	grown := w.residualFor(c, [][]float64{{1, 2, 3}, {4}})
	if len(grown[0]) != 3 || len(grown[1]) != 1 {
		t.Fatalf("accumulator not resized to delta shape: %v", grown)
	}
	if grown[0][0] != 0 {
		t.Fatalf("stale residual survived a shape change: %v", grown)
	}
	if nilRes := w.residualFor(rawCodec{}, [][]float64{{1}}); nilRes != nil {
		t.Fatal("non-sparsifying codec got an accumulator")
	}
}

func TestNewCodecRejectsUnknown(t *testing.T) {
	if _, err := NewCodec("gzip", 0); err == nil {
		t.Fatal("unknown profile accepted")
	}
	for _, p := range Profiles() {
		if _, err := NewCodec(p, 0); err != nil {
			t.Fatalf("profile %q rejected: %v", p, err)
		}
	}
}
