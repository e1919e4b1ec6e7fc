package nn

import (
	"fmt"
	"math"
)

// Quantized int8 GEMM kernels for the inference fast path.
//
// Weights are stored once as signed int8 rows, one per output column
// (QuantizedMatrix.w8). Where the CPU has AVX2, qgemmRowAVX2 reads them
// directly: 16 taps at a time are widened to int16 and multiplied and
// paired into int32 lanes by VPMADDWD, which is exact for int8 operands.
//
// The portable kernel is SWAR instead, because pure scalar int8
// multiply-accumulate loses to this package's float64 kernels on
// FP-heavy cores (one integer-multiply port against two FMA ports):
// both operands are biased by +128 into [0, 255], and three output
// columns' weights are packed into one uint64 at 21-bit lane offsets.
// One 64-bit multiply by a biased activation then accumulates three
// dot-product terms at once. A lane holds at most 2^21-1, each step adds
// at most 255·255 < 2^17, so lanes are spilled into per-column
// accumulators every qBlock steps, long before they can carry into a
// neighbour.
//
// The SWAR kernel corrects biased products back to the true signed dot
// product exactly: Σ(a+128)(w+128) = Σaw + 128·Σa + 128·Σw + 128²·k,
// with the activation row sums and weight column sums precomputed; the
// AVX2 kernel biases only the activations and subtracts 128·Σw. All
// arithmetic is integer and exact, so both kernels are checked bitwise —
// not within a tolerance — against the naive int8 reference.

const (
	// qLaneBits is the SWAR lane width: wide enough for qBlock biased
	// products, narrow enough to fit three lanes in a uint64.
	qLaneBits = 21
	qLaneMask = (1 << qLaneBits) - 1
	// qBlock is how many k-steps accumulate in-lane before spilling.
	// 16·255·255 = 1 040 400 < 2^21, comfortably below lane capacity.
	qBlock = 16
	// qZero is the bias mapping int8 to the kernel's unsigned domain.
	qZero = 128
	// qGroupCols is how many output columns share one packed uint64.
	qGroupCols = 3
	// qMaxK bounds the reduction dim so a full row of maximal biased
	// products still fits an int32 after lane spilling.
	qMaxK = math.MaxInt32 / (255 * 255)
)

// QuantizedMatrix is an int8 weight matrix: logical shape [Out, K] in
// the MatMulTransB layout (row j holds output column j's K reduction
// taps), quantized symmetrically with one round-to-nearest-even scale
// per output column.
type QuantizedMatrix struct {
	Out, K int
	// Scale dequantizes column j: float ≈ Scale[j] · int8. A zero scale
	// marks an all-zero column.
	Scale []float64

	// w8 holds the signed weights, row j at [j·kpad, j·kpad+K), zero
	// past K and in the rows past Out up to a multiple of four, so the
	// AVX2 kernel reads whole 16-tap chunks of four rows at a time.
	w8     []int8
	kpad   int
	colSum []int32  // per-column sum of signed int8 weights (zero past Out)
	packed []uint64 // portable SWAR layout, [Out/3 groups][K]; nil under AVX2
}

// quantizeRows quantizes n rows of k float64 weights (one output column
// per row). Each row gets a symmetric scale maxabs/127 and is rounded to
// nearest even, the same tie-breaking discipline as the fed package's
// binary16 encoder. The SWAR layout is built only for the portable
// kernel.
func quantizeRows(rows [][]float64, k int) (*QuantizedMatrix, error) {
	n := len(rows)
	if n == 0 || k <= 0 {
		return nil, fmt.Errorf("nn: quantize: empty matrix")
	}
	if k > qMaxK {
		return nil, fmt.Errorf("nn: quantize: reduction dim %d exceeds int32-safe bound %d", k, qMaxK)
	}
	nPad, kPad := (n+3)&^3, (k+15)&^15
	q := &QuantizedMatrix{
		Out:    n,
		K:      k,
		Scale:  make([]float64, n),
		w8:     make([]int8, nPad*kPad),
		kpad:   kPad,
		colSum: make([]int32, nPad),
	}
	for j, row := range rows {
		if len(row) != k {
			return nil, fmt.Errorf("nn: quantize: row %d has %d taps, want %d", j, len(row), k)
		}
		maxAbs := 0.0
		for _, v := range row {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		var inv float64
		if maxAbs > 0 {
			q.Scale[j] = maxAbs / 127
			inv = 127 / maxAbs
		}
		var sum int32
		dst := q.w8[j*kPad : j*kPad+k]
		for p, v := range row {
			w := quantRNE(v * inv)
			dst[p] = w
			sum += int32(w)
		}
		q.colSum[j] = sum
	}
	if !useAVX2 {
		q.packSWAR()
	}
	return q, nil
}

// packSWAR builds the portable kernel's layout from w8: the first
// Out/3·3 columns, three biased columns per uint64 at 21-bit lane
// offsets. The trailing Out%3 columns are read from w8 directly.
func (q *QuantizedMatrix) packSWAR() {
	k, ng := q.K, q.Out/qGroupCols
	q.packed = make([]uint64, ng*k)
	for j := 0; j < ng*qGroupCols; j++ {
		lane := uint(j%qGroupCols) * qLaneBits
		dst := q.packed[(j/qGroupCols)*k : (j/qGroupCols+1)*k]
		for p, w := range q.w8[j*q.kpad : j*q.kpad+k] {
			dst[p] |= uint64(uint8(int32(w)+qZero)) << lane
		}
	}
}

// Int8 returns the signed quantized weight at [col, tap]. It exists for
// the reference kernel and tests.
func (q *QuantizedMatrix) Int8(col, tap int) int8 {
	return q.w8[col*q.kpad+tap]
}

// roundEvenMagic shifts a float64 so the FPU's round-to-nearest-even at
// the 2^0 ULP does the integer rounding: adding 1.5·2^52 leaves the
// rounded integer in the low mantissa bits. Exact for |v| < 2^51, which
// quantization (|v·inv| ≤ 127 plus slack) always satisfies.
const roundEvenMagic = 6755399441055744.0

// quantRNE rounds a pre-scaled value to int8 with round-to-nearest-even,
// clamping to the symmetric range [-127, 127].
func quantRNE(v float64) int8 {
	q := int32(uint32(math.Float64bits(v + roundEvenMagic)))
	if q > 127 {
		q = 127
	}
	if q < -127 {
		q = -127
	}
	return int8(q)
}

// quantizeActs quantizes an m×k row-major float64 activation matrix with
// one dynamic per-tensor scale: au receives the biased uint8 values the
// int8 kernels consume, rowSum the per-row sums of the signed values for
// the SWAR kernel's bias correction. Returns the scale (0 for an
// all-zero input).
func quantizeActs(a []float64, m, k int, au []uint8, rowSum []int32) float64 {
	maxAbs := absMax(a[:m*k])
	if maxAbs == 0 {
		for i := range au[:m*k] {
			au[i] = qZero
		}
		for i := range rowSum[:m] {
			rowSum[i] = 0
		}
		return 0
	}
	inv := 127 / maxAbs
	for i := 0; i < m; i++ {
		rowSum[i] = quantizeRow(a[i*k:(i+1)*k], inv, au[i*k:(i+1)*k])
	}
	return maxAbs / 127
}

// absMax returns the largest |v| in a, ignoring NaN.
func absMax(a []float64) float64 {
	if n := len(a) &^ 3; useAVX2 && n > 0 {
		return max(absMaxAsm(&a[0], n), absMaxGo(a[n:]))
	}
	return absMaxGo(a)
}

func absMaxGo(a []float64) float64 {
	m := 0.0
	for _, v := range a {
		if x := math.Abs(v); x > m {
			m = x
		}
	}
	return m
}

// quantizeRow writes quantRNE(v·inv)+128 for each v of row into dst and
// returns the sum of the signed values.
func quantizeRow(row []float64, inv float64, dst []uint8) int32 {
	dst = dst[:len(row)]
	var sum int32
	if n := len(row) &^ 3; useAVX2 && n > 0 {
		sum = quantRowAsm(&row[0], n, inv, &dst[0])
		row, dst = row[n:], dst[n:]
	}
	return sum + quantizeRowGo(row, inv, dst)
}

func quantizeRowGo(row []float64, inv float64, dst []uint8) int32 {
	var sum int32
	for p, v := range row {
		w := int32(quantRNE(v * inv))
		sum += w
		dst[p] = uint8(w + qZero)
	}
	return sum
}

// qgemmBiased runs the int8 kernel over m biased activation rows,
// writing the exact signed int32 dot products to out [m, Out]. Rows are
// independent, so the parallel split is deterministic for any worker
// count (integer arithmetic is exact regardless of grouping). The AVX2
// kernel sweeps each worker's rows, two at a time, over one block of
// about gemmBlockBytes of weight rows at a time, so the weights stream
// from memory once per worker rather than once per activation row.
func qgemmBiased(au []uint8, rowSum []int32, m int, q *QuantizedMatrix, out []int32) {
	k, n := q.K, q.Out
	cb := max(4, gemmBlockBytes/q.kpad&^3)
	work := func(i0, i1 int) {
		if useAVX2 {
			for c0 := 0; c0 < n; c0 += cb {
				c1 := min(c0+cb, n)
				i := i0
				for ; i+2 <= i1; i += 2 {
					qgemmRowPairAVX2(au[i*k:(i+2)*k], q, out[i*n:(i+2)*n], n, c0, c1)
				}
				if i < i1 {
					qgemmRowAVX2(au[i*k:(i+1)*k], q, out[i*n:(i+1)*n], c0, c1)
				}
			}
			return
		}
		for i := i0; i < i1; i++ {
			qgemmRow(au[i*k:(i+1)*k], rowSum[i], q, out[i*n:(i+1)*n])
		}
	}
	parallelFor(m, m*k*n/2, work)
}

// qgemmRow is the portable SWAR kernel: one activation row against
// every packed column group. Four groups (12 output columns) ride each
// pass over the activations so one load of au feeds four packed
// multiplies.
func qgemmRow(au []uint8, rowSum int32, q *QuantizedMatrix, out []int32) {
	k := q.K
	ng := q.Out / qGroupCols
	corr := qZero*rowSum + qZero*qZero*int32(k)
	g := 0
	for ; g+4 <= ng; g += 4 {
		w0 := q.packed[(g+0)*k : (g+1)*k]
		w1 := q.packed[(g+1)*k : (g+2)*k]
		w2 := q.packed[(g+2)*k : (g+3)*k]
		w3 := q.packed[(g+3)*k : (g+4)*k]
		var spill [4 * qGroupCols]uint64
		p := 0
		for ; p+qBlock <= k; p += qBlock {
			var a0, a1, a2, a3 uint64
			for s := p; s < p+qBlock; s += 4 {
				av0, av1 := uint64(au[s]), uint64(au[s+1])
				av2, av3 := uint64(au[s+2]), uint64(au[s+3])
				a0 += av0*w0[s] + av1*w0[s+1] + av2*w0[s+2] + av3*w0[s+3]
				a1 += av0*w1[s] + av1*w1[s+1] + av2*w1[s+2] + av3*w1[s+3]
				a2 += av0*w2[s] + av1*w2[s+1] + av2*w2[s+2] + av3*w2[s+3]
				a3 += av0*w3[s] + av1*w3[s+1] + av2*w3[s+2] + av3*w3[s+3]
			}
			spillLanes(&spill, a0, a1, a2, a3)
		}
		if p < k {
			var a0, a1, a2, a3 uint64
			for ; p < k; p++ {
				av := uint64(au[p])
				a0 += av * w0[p]
				a1 += av * w1[p]
				a2 += av * w2[p]
				a3 += av * w3[p]
			}
			spillLanes(&spill, a0, a1, a2, a3)
		}
		for t := 0; t < 4; t++ {
			col := (g + t) * qGroupCols
			out[col+0] = int32(spill[3*t+0]) - corr - qZero*q.colSum[col+0]
			out[col+1] = int32(spill[3*t+1]) - corr - qZero*q.colSum[col+1]
			out[col+2] = int32(spill[3*t+2]) - corr - qZero*q.colSum[col+2]
		}
	}
	for ; g < ng; g++ {
		w0 := q.packed[g*k : (g+1)*k]
		var spill [qGroupCols]uint64
		p := 0
		for ; p+qBlock <= k; p += qBlock {
			var a0 uint64
			for s := p; s < p+qBlock; s += 4 {
				a0 += uint64(au[s])*w0[s] + uint64(au[s+1])*w0[s+1] +
					uint64(au[s+2])*w0[s+2] + uint64(au[s+3])*w0[s+3]
			}
			spill[0] += a0 & qLaneMask
			spill[1] += a0 >> qLaneBits & qLaneMask
			spill[2] += a0 >> (2 * qLaneBits)
		}
		if p < k {
			var a0 uint64
			for ; p < k; p++ {
				a0 += uint64(au[p]) * w0[p]
			}
			spill[0] += a0 & qLaneMask
			spill[1] += a0 >> qLaneBits & qLaneMask
			spill[2] += a0 >> (2 * qLaneBits)
		}
		col := g * qGroupCols
		out[col+0] = int32(spill[0]) - corr - qZero*q.colSum[col+0]
		out[col+1] = int32(spill[1]) - corr - qZero*q.colSum[col+1]
		out[col+2] = int32(spill[2]) - corr - qZero*q.colSum[col+2]
	}
	// Trailing Out%3 columns: plain signed accumulation, already exact.
	for col := ng * qGroupCols; col < q.Out; col++ {
		w := q.w8[col*q.kpad : col*q.kpad+k]
		var acc int32
		for p := 0; p < k; p++ {
			acc += (int32(au[p]) - qZero) * int32(w[p])
		}
		out[col] = acc
	}
}

// spillLanes drains four packed accumulators into their twelve per-column
// spill slots.
func spillLanes(spill *[4 * qGroupCols]uint64, a0, a1, a2, a3 uint64) {
	spill[0] += a0 & qLaneMask
	spill[1] += a0 >> qLaneBits & qLaneMask
	spill[2] += a0 >> (2 * qLaneBits)
	spill[3] += a1 & qLaneMask
	spill[4] += a1 >> qLaneBits & qLaneMask
	spill[5] += a1 >> (2 * qLaneBits)
	spill[6] += a2 & qLaneMask
	spill[7] += a2 >> qLaneBits & qLaneMask
	spill[8] += a2 >> (2 * qLaneBits)
	spill[9] += a3 & qLaneMask
	spill[10] += a3 >> qLaneBits & qLaneMask
	spill[11] += a3 >> (2 * qLaneBits)
}

// qgemmRef is the naive int8 reference: the same quantized operands
// through the plain signed triple loop. Both optimized kernels must
// match it bit for bit.
func qgemmRef(au []uint8, m int, q *QuantizedMatrix, out []int32) {
	k, n := q.K, q.Out
	for i := 0; i < m; i++ {
		arow := au[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += (int32(arow[p]) - qZero) * int32(q.Int8(j, p))
			}
			out[i*n+j] = acc
		}
	}
}

// dequantInto scales the exact int32 accumulators back to float64:
// y[i][j] = acc[i][j] · aScale · Scale[j]. Both the optimized and the
// reference paths share it, so their outputs stay bitwise identical.
func dequantInto(acc []int32, aScale float64, q *QuantizedMatrix, y []float64) {
	n := q.Out
	m := len(acc) / n
	for i := 0; i < m; i++ {
		arow := acc[i*n : (i+1)*n]
		yrow := y[i*n : (i+1)*n]
		for j, v := range arow {
			yrow[j] = float64(v) * (aScale * q.Scale[j])
		}
	}
}

// QuantizeTransB quantizes b [n, k] — the MatMulTransB weight layout,
// one output column per row — into int8 with per-column symmetric
// scales.
func QuantizeTransB(b *Tensor) (*QuantizedMatrix, error) {
	if len(b.Shape) != 2 {
		return nil, fmt.Errorf("nn: QuantizeTransB wants a matrix, got %v", b.Shape)
	}
	n, k := b.Shape[0], b.Shape[1]
	rows := make([][]float64, n)
	for j := 0; j < n; j++ {
		rows[j] = b.Data[j*k : (j+1)*k]
	}
	return quantizeRows(rows, k)
}

// Quantize quantizes b [k, n] — the MatMul weight layout, as stored by
// Dense — transposing into the per-output-column form. The
// transpose happens once at quantization time; inference never pays it.
func Quantize(b *Tensor) (*QuantizedMatrix, error) {
	if len(b.Shape) != 2 {
		return nil, fmt.Errorf("nn: Quantize wants a matrix, got %v", b.Shape)
	}
	k, n := b.Shape[0], b.Shape[1]
	rows := make([][]float64, n)
	for j := 0; j < n; j++ {
		col := make([]float64, k)
		for p := 0; p < k; p++ {
			col[p] = b.Data[p*n+j]
		}
		rows[j] = col
	}
	return quantizeRows(rows, k)
}

// quantMatMul is the shared body of the exported quantized matmuls:
// dynamic per-tensor quantization of a, the selected int32 kernel, and
// the shared dequantization.
func quantMatMul(a *Tensor, q *QuantizedMatrix, kernel func([]uint8, []int32, int, *QuantizedMatrix, []int32)) (*Tensor, error) {
	if len(a.Shape) != 2 || a.Shape[1] != q.K {
		return nil, fmt.Errorf("nn: quantized matmul expects [N,%d], got %v", q.K, a.Shape)
	}
	m := a.Shape[0]
	au := make([]uint8, m*q.K)
	rowSum := make([]int32, m)
	scale := quantizeActs(a.Data, m, q.K, au, rowSum)
	acc := make([]int32, m*q.Out)
	kernel(au, rowSum, m, q, acc)
	y := NewTensor(m, q.Out)
	dequantInto(acc, scale, q, y.Data)
	return y, nil
}

// QuantizedMatMul computes a [m, k] × bᵀ for a pre-quantized b, through
// the int8 kernel the CPU supports. It is the int8 twin of MatMul after b has been
// transposed offline into the per-output-column layout.
func QuantizedMatMul(a *Tensor, q *QuantizedMatrix) (*Tensor, error) {
	return quantMatMul(a, q, qgemmBiased)
}

// QuantizedMatMulRef is QuantizedMatMul through the naive int8 triple
// loop — same quantization, same dequantization, exact integer middle —
// so the two must agree bitwise.
func QuantizedMatMulRef(a *Tensor, q *QuantizedMatrix) (*Tensor, error) {
	return quantMatMul(a, q, func(au []uint8, _ []int32, m int, q *QuantizedMatrix, out []int32) {
		qgemmRef(au, m, q, out)
	})
}
