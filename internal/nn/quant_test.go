package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestQuantRNE pins the int8 quantizer's round-to-nearest-even
// discipline — the same tie-breaking the fed package's binary16 encoder
// uses — including the symmetric clamp. The table mirrors the f16
// boundary table in fed: exact values, ties both directions, and the
// saturation edge.
func TestQuantRNE(t *testing.T) {
	cases := []struct {
		name string
		in   float64
		want int8
	}{
		{"zero", 0, 0},
		{"exact positive", 3, 3},
		{"exact negative", -100, -100},
		{"tie rounds down to even", 0.5, 0},
		{"tie rounds up to even", 1.5, 2},
		{"tie 2.5 stays even", 2.5, 2},
		{"negative tie to even", -0.5, 0},
		{"negative tie up magnitude", -1.5, -2},
		{"negative tie stays even", -2.5, -2},
		{"just above tie", 0.5000001, 1},
		{"just below tie", 1.4999999, 1},
		{"max in range", 127, 127},
		{"min in range", -127, -127},
		{"tie at clamp edge", 126.5, 126},
		{"tie past clamp edge rounds to 128 then clamps", 127.5, 127},
		{"overflow clamps", 300.25, 127},
		{"negative overflow clamps", -12345, -127},
	}
	for _, c := range cases {
		if got := quantRNE(c.in); got != c.want {
			t.Errorf("%s: quantRNE(%v) = %d, want %d", c.name, c.in, got, c.want)
		}
	}
}

// TestQuantRNEMatchesMathRoundToEven asserts the magic-constant fast
// path is bit-for-bit the library rounding over a dense sweep, so the
// hot loop's shortcut can never drift from the documented discipline.
func TestQuantRNEMatchesMathRoundToEven(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(v float64) {
		ref := math.RoundToEven(v)
		if ref > 127 {
			ref = 127
		}
		if ref < -127 {
			ref = -127
		}
		if got := quantRNE(v); float64(got) != ref {
			t.Fatalf("quantRNE(%v) = %d, math.RoundToEven clamps to %v", v, got, ref)
		}
	}
	for i := -260; i <= 260; i++ {
		check(float64(i) / 2) // every half-step including all ties
	}
	for i := 0; i < 5000; i++ {
		check(rng.NormFloat64() * 80)
	}
}

// TestQuantizeRoundTrip: quantizing a matrix whose rows are integer
// multiples of a per-row step, with max magnitude exactly 127 steps,
// reproduces every entry exactly after dequantization (the per-row
// scale lands on the step itself).
func TestQuantizeRoundTrip(t *testing.T) {
	b := NewTensor(4, 6)
	grid := []int{127, -127, 64, -3, 0, 111}
	for j := 0; j < 4; j++ {
		step := 0.03125 * float64(j+1)
		for p := 0; p < 6; p++ {
			b.Data[j*6+p] = float64(grid[p]) * step
		}
	}
	q, err := QuantizeTransB(b)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		for p := 0; p < 6; p++ {
			got := float64(q.Int8(j, p)) * q.Scale[j]
			if math.Abs(got-b.Data[j*6+p]) > 1e-12 {
				t.Fatalf("col %d tap %d: dequant %v, want %v", j, p, got, b.Data[j*6+p])
			}
		}
	}
}

// TestQuantizeZeroColumn: an all-zero output column gets scale 0 and
// contributes exactly zero.
func TestQuantizeZeroColumn(t *testing.T) {
	b := NewTensor(3, 5)
	for p := 0; p < 5; p++ {
		b.Data[0*5+p] = float64(p + 1)
		b.Data[2*5+p] = -float64(p + 1)
	}
	q, err := QuantizeTransB(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.Scale[1] != 0 {
		t.Fatalf("zero column scale = %v, want 0", q.Scale[1])
	}
	a := NewTensor(2, 5)
	for i := range a.Data {
		a.Data[i] = 1
	}
	y, err := QuantizedMatMul(a, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if y.Data[i*3+1] != 0 {
			t.Fatalf("zero column output = %v, want 0", y.Data[i*3+1])
		}
	}
}

// buildQuantTestSeq assembles the Linear-pilot shape in miniature:
// conv → relu → conv → relu → flatten → dense → relu → dropout →
// dense → tanh.
func buildQuantTestSeq(t *testing.T, seed int64) *Sequential {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	conv1, err := NewConv2D(1, 4, 5, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	conv2, err := NewConv2D(4, 12, 3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	drop, err := NewDropout(0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	return NewSequential(
		conv1, &ReLU{},
		conv2, &ReLU{},
		&Flatten{},
		NewDense(12*6*6, 32, rng), &ReLU{},
		drop,
		NewDense(32, 2, rng), &Tanh{},
	)
}

// TestQuantizeSequentialAccuracy compares the quantized copy against the
// float model on random input: outputs must stay within a loose drift
// bound (the eval package enforces the serving-level budget; this is the
// layer-level sanity floor) and must be bitwise deterministic.
func TestQuantizeSequentialAccuracy(t *testing.T) {
	s := buildQuantTestSeq(t, 3)
	qs, err := QuantizeSequential(s, QuantInt8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	x := NewTensor(8, 1, 31, 31)
	x.RandNormal(rng, 0.5)
	want, err := s.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := qs.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameShape(want) {
		t.Fatalf("quantized output shape %v, want %v", got.Shape, want.Shape)
	}
	for i := range got.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > 0.1 {
			t.Fatalf("element %d drifts %v (quant %v vs float %v)", i, d, got.Data[i], want.Data[i])
		}
	}
	again, err := qs.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again.Data {
		if again.Data[i] != got.Data[i] {
			t.Fatalf("quantized forward is not deterministic at element %d", i)
		}
	}
}

// TestQuantizeSequentialStructure pins the rewrite rules: Dense becomes
// QDense, a conv stays shared float, Dropout disappears, and the float
// model is left untouched.
func TestQuantizeSequentialStructure(t *testing.T) {
	s := buildQuantTestSeq(t, 4)
	nLayers := len(s.Layers)
	qs, err := QuantizeSequential(s, QuantInt8)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Layers) != nLayers {
		t.Fatalf("float model layer count changed: %d -> %d", nLayers, len(s.Layers))
	}
	if len(qs.Layers) != nLayers-1 {
		t.Fatalf("quantized model has %d layers, want %d (dropout removed)", len(qs.Layers), nLayers-1)
	}
	var qdense, dense, conv, dropout int
	for _, l := range qs.Layers {
		switch l.(type) {
		case *QDense:
			qdense++
		case *Dense:
			dense++
		case *Conv2D:
			conv++
		case *Dropout:
			dropout++
		}
	}
	if qdense != 2 || dense != 0 {
		t.Errorf("got %d QDense and %d Dense, want 2 and 0", qdense, dense)
	}
	if conv != 2 {
		t.Errorf("got %d float Conv2D, want 2 (convs stay float)", conv)
	}
	if dropout != 0 {
		t.Errorf("dropout survived quantization")
	}
	// Quantized layers drop their params; only the shared float convs
	// still pass theirs through.
	convParams := 0
	for _, l := range s.Layers {
		if c, ok := l.(*Conv2D); ok {
			for _, p := range c.Params() {
				convParams += len(p.W.Data)
			}
		}
	}
	if p := ParamCount(qs); p != convParams {
		t.Errorf("quantized model advertises %d trainable params, want %d (shared convs only)", p, convParams)
	}
}

// TestQuantInferenceOnly: the quantized layers refuse Backward, and the
// unknown-mode and no-quantizable-layer paths error cleanly.
func TestQuantInferenceOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	qd, err := NewQDense(NewDense(4, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qd.Backward(NewTensor(1, 3)); err == nil {
		t.Error("QDense.Backward succeeded, want inference-only error")
	}
	if _, err := QuantizeSequential(NewSequential(&ReLU{}), QuantInt8); err == nil {
		t.Error("quantizing a model with no quantizable layers succeeded")
	}
	if _, err := QuantizeSequential(NewSequential(NewDense(2, 2, rng)), "int4"); err == nil {
		t.Error("unknown quantization mode succeeded")
	}
}

// TestQuantizedMatMulLayouts: Quantize ([k,n], the Dense storage order)
// and QuantizeTransB ([n,k]) of the same logical matrix produce the same
// packed form, so both layouts PR 3 tiled share one quantized kernel.
func TestQuantizedMatMulLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	k, n := 37, 14
	bkn := NewTensor(k, n)
	bkn.RandNormal(rng, 1)
	bnk := NewTensor(n, k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bnk.Data[j*k+p] = bkn.Data[p*n+j]
		}
	}
	q1, err := Quantize(bkn)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := QuantizeTransB(bnk)
	if err != nil {
		t.Fatal(err)
	}
	a := NewTensor(5, k)
	a.RandNormal(rng, 1)
	y1, err := QuantizedMatMul(a, q1)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := QuantizedMatMul(a, q2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatalf("layouts disagree at element %d: %v vs %v", i, y1.Data[i], y2.Data[i])
		}
	}
}
