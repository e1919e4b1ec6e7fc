package nn

import (
	"math"
	"math/rand"
	"testing"
)

// simdGrid covers the AVX2 kernels' boundaries: the 4-lane and 4-step
// groups (and their tails), the 4-row × 8-column tile and partial
// panels, plus the pilot's im2col widths (25, 72).
var simdGrid = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 25, 31, 63, 64, 65, 72, 129}

// specialFill fills t with unit-scale gaussians of mixed magnitude and
// sprinkles in what IEEE arithmetic treats specially: ±0, subnormals,
// ±Inf and NaN when specials is set.
func specialFill(rng *rand.Rand, t []float64, specials bool) {
	for i := range t {
		v := rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20)
		switch r := rng.Intn(400); {
		case r < 40:
			v = 0
		case r < 60:
			v = math.Copysign(0, -1)
		case !specials:
		case r < 64:
			v = math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal
		case r == 64:
			v = math.Inf(1)
		case r == 65:
			v = math.Inf(-1)
		case r == 66:
			v = math.NaN()
		}
		t[i] = v
	}
}

// zeroGroups zeroes whole runs of four consecutive taps (stride apart)
// in roughly one group in five, with mixed zero signs.
func zeroGroups(rng *rand.Rand, t []float64, rows, k, rowStride, tapStride int) {
	for i := 0; i < rows; i++ {
		for p := 0; p+4 <= k; p += 4 {
			if rng.Intn(5) != 0 {
				continue
			}
			for d := 0; d < 4; d++ {
				t[i*rowStride+(p+d)*tapStride] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
		}
	}
}

// sameBits reports whether two results are the same float64 bits, or
// both NaN (NaN payloads may differ between operand orders, NaN-ness
// may not).
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

func requireSameBits(t *testing.T, name string, m, k, n int, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s m=%d k=%d n=%d: element %d is %v (%#x), portable gives %v (%#x)",
				name, m, k, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSIMDMatchesPortableBitwise runs all four float64 entry points on
// the CPU's kernels and on the portable ones over the full m × k × n
// grid, with and without special values, and requires identical bits.
func TestSIMDMatchesPortableBitwise(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: the entry points already run the portable kernels")
	}
	defer SetMaxWorkers(SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(7))
	for _, specials := range []bool{false, true} {
		for _, m := range simdGrid {
			for _, k := range simdGrid {
				for _, n := range simdGrid {
					a := make([]float64, m*k)
					b := make([]float64, k*n)
					bias := make([]float64, n)
					specialFill(rng, a, specials)
					specialFill(rng, b, specials)
					specialFill(rng, bias, specials)
					got := make([]float64, m*n)
					want := make([]float64, m*n)

					zeroGroups(rng, a, m, k, k, 1) // A [m,k]: taps contiguous
					gemmInto(a, b, got, m, k, n)
					gemmRows(gemmRowGo, a, k, 1, b, nil, want, m, k, n, nil)
					requireSameBits(t, "gemmInto", m, k, n, got, want)

					gemmBiasInto(a, b, bias, got, m, k, n, nil)
					gemmRows(gemmRowGo, a, k, 1, b, bias, want, m, k, n, nil)
					requireSameBits(t, "gemmBiasInto", m, k, n, got, want)

					zeroGroups(rng, a, m, k, 1, m) // A [k,m]: taps m apart
					gemmTransAInto(a, b, got, k, m, n)
					gemmRows(gemmRowGo, a, 1, m, b, nil, want, m, k, n, nil)
					requireSameBits(t, "gemmTransAInto", m, k, n, got, want)

					bt := b[:n*k] // B [n,k]
					gemmTransBInto(a, bt, got, m, k, n)
					gemmTransBGo(a, bt, want, m, k, n)
					requireSameBits(t, "gemmTransBInto", m, k, n, got, want)
				}
			}
		}
	}
}

// TestSIMDRowKernelKBlocks runs the row kernels on a reduction longer
// than one gemmBlockBytes block, so workers sweep several k blocks.
func TestSIMDRowKernelKBlocks(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	rng := rand.New(rand.NewSource(9))
	m, k, n := 5, 2*gemmBlockBytes/(8*9)+7, 9
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	specialFill(rng, a, false)
	specialFill(rng, b, false)
	zeroGroups(rng, a, m, k, 1, m)
	want := make([]float64, m*n)
	for i := 0; i < m; i++ {
		gemmRowGo(a[i:], m, b, want[i*n:(i+1)*n], k, n) // one unblocked pass per row
	}
	for _, w := range []int{1, 2, 3} {
		SetMaxWorkers(w)
		got := make([]float64, m*n)
		gemmTransAInto(a, b, got, k, m, n)
		requireSameBits(t, "gemmTransAInto blocked", m, k, n, got, want)
	}
}

// TestQGemmKernelsMatchReference checks the AVX2 int8 kernels (one row
// and row pairs) and the portable SWAR kernel against qgemmRef bit for
// bit, on shapes that
// straddle the 16-tap chunks, the 4-row weight blocks, the 3-column
// SWAR lanes, all-zero weight columns, and reductions close to qMaxK.
func TestQGemmKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][3]int{ // m, k, n
		{1, 1, 1}, {2, 15, 3}, {3, 16, 4}, {4, 17, 5}, {2, 31, 7}, {5, 72, 16},
		{3, 100, 13}, {1, 576, 50}, {2, qMaxK - 1, 5}, {1, qMaxK, 6},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		rows := make([][]float64, n)
		for j := range rows {
			rows[j] = make([]float64, k)
			if j%4 == 1 {
				continue // an all-zero column: zero scale, zero weights
			}
			for p := range rows[j] {
				rows[j][p] = rng.NormFloat64()
			}
		}
		q, err := quantizeRows(rows, k)
		if err != nil {
			t.Fatal(err)
		}
		if q.packed == nil {
			q.packSWAR()
		}
		a := make([]float64, m*k)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		// Both activation extremes: biased 1 and 255.
		a[0], a[len(a)-1] = 5, -5
		au := make([]uint8, m*k)
		rowSum := make([]int32, m)
		quantizeActs(a, m, k, au, rowSum)
		want := make([]int32, m*n)
		qgemmRef(au, m, q, want)
		check := func(name string, got []int32) {
			t.Helper()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s %v: element %d = %d, qgemmRef gives %d", name, s, i, got[i], want[i])
				}
			}
		}
		got := make([]int32, m*n)
		for i := 0; i < m; i++ {
			qgemmRow(au[i*k:(i+1)*k], rowSum[i], q, got[i*n:(i+1)*n])
		}
		check("SWAR", got)
		if useAVX2 {
			got := make([]int32, m*n)
			for i := 0; i < m; i++ {
				qgemmRowAVX2(au[i*k:(i+1)*k], q, got[i*n:(i+1)*n], 0, n)
			}
			check("AVX2", got)
			got = make([]int32, m*n)
			qgemmBiased(au, rowSum, m, q, got) // row pairs, then an odd row
			check("AVX2 pairs", got)
		}
	}
}

// TestSIMDQuantizeActsMatchesPortable checks the AVX2 activation
// quantizer against the portable loops: the same scale (NaN ignored)
// and the same bytes and row sums, over ±0, subnormals, ±Inf, NaN,
// round-to-even ties, values the ±127 clamp catches and every length
// tail.
func TestSIMDQuantizeActsMatchesPortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: quantizeActs already runs the portable loops")
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 4, 5, 8, 17, 64, 1001} {
		for trial := 0; trial < 20; trial++ {
			row := make([]float64, n)
			specialFill(rng, row, trial%2 == 1)
			for i := range row {
				if rng.Intn(8) == 0 {
					row[i] = float64(rng.Intn(301)-150) + 0.5 // ties, some past ±127
				}
			}
			scale, want := absMax(row), absMaxGo(row)
			if !sameBits(scale, want) {
				t.Fatalf("n=%d trial %d: absMax %v, portable %v", n, trial, scale, want)
			}
			for _, inv := range []float64{1, 127 / max(want, 1), 3.7, 1e300} {
				got, exp := make([]uint8, n), make([]uint8, n)
				gs, es := quantizeRow(row, inv, got), quantizeRowGo(row, inv, exp)
				if gs != es {
					t.Fatalf("n=%d trial %d inv=%v: row sum %d, portable %d", n, trial, inv, gs, es)
				}
				for i := range exp {
					if got[i] != exp[i] {
						t.Fatalf("n=%d trial %d inv=%v: byte %d of %v is %d, portable %d",
							n, trial, inv, i, row[i], got[i], exp[i])
					}
				}
			}
		}
	}
}
