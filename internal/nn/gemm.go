package nn

// Cache-blocked, register-tiled GEMM kernels for the three layouts the
// layers need (C = A×B, C = Aᵀ×B, C = A×Bᵀ), plus fused bias/epilogue
// variants for the Dense hot path. Each optimized kernel keeps its naive
// sibling (MatMulRef and friends) as the reference implementation; the
// nn/kerneltest package cross-checks the pair over a shape × worker grid
// and go-fuzz targets.
//
// Determinism contract: for a fixed shape, every output element is
// accumulated in the same k-order by exactly one goroutine, so results
// are bitwise identical across worker counts and across runs. The tiled
// kernels may round differently from the naive references (partial-sum
// grouping), but the difference is bounded well below 1e-12 for
// unit-scale data, which kerneltest asserts.
//
// Where the CPU and OS support AVX2 (useAVX2), the inner kernels run in
// assembly (simd_amd64.s) that forms every output from the same IEEE
// multiplies and adds, in the same order, as the portable Go kernels
// below (gemmRowGo, gemmTransBGo), so the two paths agree bit for bit
// and the portable kernels stay the reference for the assembly.

const (
	// gemmTileM × gemmTileN is the C tile each parallel work unit owns in
	// the A×Bᵀ kernel: the tile's A and B row panels (tile × k floats
	// each) stay L1/L2-resident while the 2×4 register micro-kernel
	// sweeps the tile.
	gemmTileM = 64
	gemmTileN = 64

	// gemmBlockBytes sizes the k blocks of the row kernels: each worker
	// sweeps all of its C rows over one block of B rows (about this many
	// bytes) before moving on, so B streams from memory once per worker
	// instead of once per C row. Blocks are whole four-step groups, which
	// leaves every element's accumulation order unchanged.
	gemmBlockBytes = 128 << 10
)

// gemmInto computes C = A×B on raw row-major buffers (overwrite, not
// accumulate): A is [m,k], B is [k,n], C is [m,n].
func gemmInto(a, b, c []float64, m, k, n int) {
	gemmRows(gemmRow, a, k, 1, b, nil, c, m, k, n, nil)
}

// gemmBiasInto computes C = A×B + bias (bias broadcast across rows) and
// then applies epi — when non-nil — to each completed row range while it
// is still cache-hot. epi receives the flat [lo, hi) index range of C it
// must process; ranges from concurrent workers never overlap.
func gemmBiasInto(a, b, bias, c []float64, m, k, n int, epi func(lo, hi int)) {
	gemmRows(gemmRow, a, k, 1, b, bias, c, m, k, n, epi)
}

// gemmTransAInto computes C = Aᵀ×B (overwrite) for A [k,m], B [k,n],
// C [m,n]. Row i's coefficients are column i of A, read with stride m.
func gemmTransAInto(a, b, c []float64, k, m, n int) {
	gemmRows(gemmRow, a, 1, m, b, nil, c, m, k, n, nil)
}

// rowKernel accumulates one C row: c[j] += Σ_p a[p·astep]·b[p·n+j] for
// p in [0, k). gemmRowGo defines the order; gemmRowAVX2 reproduces it.
type rowKernel func(a []float64, astep int, b, c []float64, k, n int)

// gemmRow is the row kernel the CPU supports.
func gemmRow(a []float64, astep int, b, c []float64, k, n int) {
	if useAVX2 {
		gemmRowAVX2(a, astep, b, c, k, n)
		return
	}
	gemmRowGo(a, astep, b, c, k, n)
}

// gemmRows drives a row kernel over C = A'×B + bias, where A' row i,
// tap p is a[i·aRow + p·aStep]. C rows start from bias, or zero when
// bias is nil. Workers own disjoint row ranges and sweep them k block by
// k block (gemmBlockBytes), so each element's order is fixed regardless
// of worker count; epi, when non-nil, runs on each worker's finished
// range.
func gemmRows(row rowKernel, a []float64, aRow, aStep int, b, bias, c []float64, m, k, n int, epi func(lo, hi int)) {
	kb := max(4, gemmBlockBytes/(8*max(n, 1))&^3)
	work := func(i0, i1 int) {
		for p0 := 0; p0 < k || p0 == 0; p0 += kb {
			p1 := min(p0+kb, k)
			for i := i0; i < i1; i++ {
				ci := c[i*n : (i+1)*n]
				if p0 == 0 {
					if bias != nil {
						copy(ci, bias)
					} else {
						clear(ci)
					}
				}
				if p1 > p0 {
					row(a[i*aRow+p0*aStep:], aStep, b[p0*n:p1*n], ci, p1-p0, n)
				}
			}
		}
		if epi != nil {
			epi(i0*n, i1*n)
		}
	}
	parallelFor(m, m*k*n, work)
}

// gemmRowGo is the portable row kernel. It processes four k-steps per
// pass, c[j] += ((a0·b0[j] + a1·b1[j]) + a2·b2[j]) + a3·b3[j], so each C
// row is loaded and stored a quarter as often as in the naive loop; a
// group whose four coefficients are all zero is skipped, and the k%4
// tail runs one step at a time, skipping zero coefficients.
func gemmRowGo(a []float64, astep int, b, c []float64, k, n int) {
	c = c[:n]
	p := 0
	for ; p+4 <= k; p += 4 {
		av0, av1, av2, av3 := a[p*astep], a[(p+1)*astep], a[(p+2)*astep], a[(p+3)*astep]
		if av0 == 0 && av1 == 0 && av2 == 0 && av3 == 0 {
			continue
		}
		b0 := b[p*n : (p+1)*n]
		b1 := b[(p+1)*n : (p+2)*n]
		b2 := b[(p+2)*n : (p+3)*n]
		b3 := b[(p+3)*n : (p+4)*n]
		for j := range c {
			c[j] += av0*b0[j] + av1*b1[j] + av2*b2[j] + av3*b3[j]
		}
	}
	for ; p < k; p++ {
		av := a[p*astep]
		if av == 0 {
			continue
		}
		bp := b[p*n : (p+1)*n]
		for j := range c {
			c[j] += av * bp[j]
		}
	}
}

// gemmTransBInto computes C = A×Bᵀ (overwrite) for A [m,k], B [n,k],
// C [m,n], on the AVX2 tile kernel when the CPU has it and C has at
// least one whole 4-row block: below that, packing B costs more than
// the kernel saves (1×64×2240 ran 5× slower packed than portable).
func gemmTransBInto(a, b, c []float64, m, k, n int) {
	if useAVX2 && m >= 4 {
		gemmTransBAVX2(a, b, c, m, k, n)
		return
	}
	gemmTransBGo(a, b, c, m, k, n)
}

// gemmTransBSerial computes C = A×Bᵀ (overwrite) for A [m,k], B [n,k],
// C [m,n] on the calling goroutine, each output the same sequential
// tap sum from +0 as gemmTransBInto. packed is B as packTransB leaves
// it when the CPU has AVX2, and nil otherwise, so a caller running many
// products against one B packs it once.
func gemmTransBSerial(a, b []float64, packed *Tensor, c []float64, m, k, n int) {
	if packed == nil {
		gemmTransBTile(a, b, c, k, n, 0, m, 0, n)
		return
	}
	for q := 0; q*8 < n; q++ {
		gemmTransBPanelAVX2(a, packed.Data[q*k*8:(q+1)*k*8], c, k, n, 0, m, q*8)
	}
}

// gemmTransBGo is the portable A×Bᵀ kernel. The output is 2-D-tiled into
// gemmTileM × gemmTileN blocks scheduled across workers (instead of
// whole-row chunks), and rows of A and B are both contiguous, so inside
// a tile the kernel register-tiles 2×4 output elements: each pass loads
// two A rows and four B rows once and feeds eight dot-product
// accumulators. Every output is the sequential sum over p = 0..k-1 from
// +0.
func gemmTransBGo(a, b, c []float64, m, k, n int) {
	mt := (m + gemmTileM - 1) / gemmTileM
	nt := (n + gemmTileN - 1) / gemmTileN
	parallelForTiles(mt, nt, m*k*n, func(ti, tj int) {
		i0, i1 := ti*gemmTileM, (ti+1)*gemmTileM
		if i1 > m {
			i1 = m
		}
		j0, j1 := tj*gemmTileN, (tj+1)*gemmTileN
		if j1 > n {
			j1 = n
		}
		gemmTransBTile(a, b, c, k, n, i0, i1, j0, j1)
	})
}

// gemmTransBTile computes the C tile [i0:i1) × [j0:j1) of C = A×Bᵀ.
func gemmTransBTile(a, b, c []float64, k, n, i0, i1, j0, j1 int) {
	i := i0
	for ; i+2 <= i1; i += 2 {
		a0 := a[i*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		c0 := c[i*n : (i+1)*n]
		c1 := c[(i+1)*n : (i+2)*n]
		j := j0
		for ; j+4 <= j1; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for p := 0; p < k; p++ {
				av0, av1 := a0[p], a1[p]
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
		}
		for ; j < j1; j++ {
			bj := b[j*k : (j+1)*k]
			var s0, s1 float64
			for p := 0; p < k; p++ {
				s0 += a0[p] * bj[p]
				s1 += a1[p] * bj[p]
			}
			c0[j], c1[j] = s0, s1
		}
	}
	for ; i < i1; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		j := j0
		for ; j+4 <= j1; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p := 0; p < k; p++ {
				av := ai[p]
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
		}
		for ; j < j1; j++ {
			bj := b[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s += ai[p] * bj[p]
			}
			ci[j] = s
		}
	}
}

// ---------------------------------------------------------------------
// Naive reference kernels. These are the original triple-loop
// implementations, kept verbatim as the ground truth the optimized
// kernels are cross-checked against (nn/kerneltest). They run
// single-threaded so their accumulation order is the plain 0..k-1 scan.

// MatMulRef is the naive reference for MatMul.
func MatMulRef(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, errMatMulShape(a, b)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, errMatMulInner(k, k2)
	}
	c := NewTensor(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += av * bp[j]
			}
		}
	}
	return c, nil
}

// MatMulTransARef is the naive reference for MatMulTransA.
func MatMulTransARef(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, errMatMulShape(a, b)
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, errMatMulInner(k, k2)
	}
	c := NewTensor(m, n)
	for p := 0; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			av := ap[i]
			if av == 0 {
				continue
			}
			ci := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += av * bp[j]
			}
		}
	}
	return c, nil
}

// MatMulTransBRef is the naive reference for MatMulTransB.
func MatMulTransBRef(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, errMatMulShape(a, b)
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, errMatMulInner(k, k2)
	}
	c := NewTensor(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s += ai[p] * bj[p]
			}
			ci[j] = s
		}
	}
	return c, nil
}
