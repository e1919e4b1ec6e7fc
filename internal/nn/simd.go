package nn

// Safe wrappers around the AVX2 kernels of simd_amd64.s. Each slices
// every operand to the full extent the kernel touches before passing
// &s[0], so a bad index panics here, in Go, as the portable kernels'
// bounds checks would; the kernels themselves read and write exactly
// those ranges. Off amd64 useAVX2 is false and none of these run.

// gemmRowAVX2 is gemmRowGo on the AVX2 row kernel, bit for bit.
func gemmRowAVX2(a []float64, astep int, b, c []float64, k, n int) {
	if k == 0 || n == 0 {
		return
	}
	a = a[:(k-1)*astep+1]
	b = b[:k*n]
	c = c[:n]
	gemmRowAsm(&a[0], astep, &b[0], &c[0], k, n)
}

// gemmTransBAVX2 is gemmTransBGo on the AVX2 4×8 tile kernel, bit for
// bit. B is packed once by packTransB; tiles of gemmTileM rows × one
// panel are dealt to workers, and each output belongs to one.
func gemmTransBAVX2(a, b, c []float64, m, k, n int) {
	if k == 0 {
		clear(c[:m*n])
		return
	}
	packed := packTransB(b, k, n)
	mt := (m + gemmTileM - 1) / gemmTileM
	parallelForTiles(mt, (n+7)/8, m*k*n, func(ti, q int) {
		i0 := ti * gemmTileM
		gemmTransBPanelAVX2(a, packed.Data[q*k*8:(q+1)*k*8], c, k, n, i0, min(i0+gemmTileM, m), q*8)
	})
	releaseScratch(packed)
}

// packTransB packs B [n,k] for the AVX2 A×Bᵀ kernel into ⌈n/8⌉ panels
// of k×8 from the scratch arena: eight B rows interleaved tap by tap,
// zero past n, so the kernel reads eight outputs' taps with two loads.
// Panels are packed across workers.
func packTransB(b []float64, k, n int) *Tensor {
	np := (n + 7) / 8
	packed := getScratch(np * k * 8)
	parallelFor(np, np*k*8, func(q0, q1 int) {
		for q := q0; q < q1; q++ {
			panel := packed.Data[q*k*8 : (q+1)*k*8]
			if j0 := q * 8; j0+8 > n { // the last, partial panel
				clear(panel)
				for j := j0; j < n; j++ {
					for p, v := range b[j*k : (j+1)*k] {
						panel[p*8+j-j0] = v
					}
				}
				continue
			}
			r := b[q*8*k : (q+1)*8*k]
			for p := 0; p < k; p++ {
				d := panel[p*8 : p*8+8]
				d[0], d[1], d[2], d[3] = r[p], r[k+p], r[2*k+p], r[3*k+p]
				d[4], d[5], d[6], d[7] = r[4*k+p], r[5*k+p], r[6*k+p], r[7*k+p]
			}
		}
	})
	return packed
}

// gemmTransBPanelAVX2 computes C rows [i0, i1) × columns [j0, j0+8) ∩
// [0, n) from one packed panel. Whole 4-row blocks of a full panel go
// straight into C; a partial panel or a last block of fewer than four
// rows goes through a 4×8 buffer (its A rows zero-padded to four).
func gemmTransBPanelAVX2(a, panel, c []float64, k, n, i0, i1, j0 int) {
	w := min(8, n-j0)
	i := i0
	if g := (i1 - i0) / 4; w == 8 && g > 0 {
		ai := a[i*k : (i+4*g)*k]
		ci := c[i*n+j0 : (i+4*g-1)*n+j0+8]
		gemmTransB4x8Asm(&ai[0], k, &panel[0], k, &ci[0], n, g)
		i += 4 * g
	}
	var out [32]float64
	for ; i < i1; i += 4 {
		r := min(4, i1-i)
		ai := a[i*k : (i+r)*k]
		var pad *Tensor
		if r < 4 {
			pad = getScratchZero(4 * k)
			copy(pad.Data, ai)
			ai = pad.Data
		}
		gemmTransB4x8Asm(&ai[0], k, &panel[0], k, &out[0], 8, 1)
		releaseScratch(pad)
		for rr := 0; rr < r; rr++ {
			copy(c[(i+rr)*n+j0:(i+rr)*n+j0+w], out[rr*8:rr*8+w])
		}
	}
}

// qgemmRowAVX2 is qgemmRow on the AVX2 int8 kernel for output columns
// [c0, c1), c0 a multiple of 4: exact int32 dot products of one biased
// activation row against those weight rows of q, equal to qgemmRef bit
// for bit. The taps past the last whole 16 come from a zero-padded
// copy, so the kernel never reads past au.
func qgemmRowAVX2(au []uint8, q *QuantizedMatrix, out []int32, c0, c1 int) {
	k, kp := q.K, q.kpad
	au = au[:k]
	full := k &^ 15
	var tail [16]uint8
	copy(tail[:], au[full:])
	g := (c1 - c0) / 4
	if g > 0 {
		w := q.w8[c0*kp : (c0+4*g)*kp]
		cs := q.colSum[c0 : c0+4*g]
		o := out[c0 : c0+4*g]
		qdot4Asm(&au[0], &tail[0], full, &w[0], kp, &cs[0], &o[0], g)
	}
	if c := c0 + 4*g; c < c1 {
		w := q.w8[c*kp : (c+4)*kp]
		cs := q.colSum[c : c+4]
		var o [4]int32
		qdot4Asm(&au[0], &tail[0], full, &w[0], kp, &cs[0], &o[0], 1)
		copy(out[c:c1], o[:c1-c])
	}
}

// qgemmRowPairAVX2 is qgemmRowAVX2 for two consecutive activation rows
// (au holds 2·K taps, out two rows ldo apart), so each weight chunk the
// kernel loads feeds both rows.
func qgemmRowPairAVX2(au []uint8, q *QuantizedMatrix, out []int32, ldo, c0, c1 int) {
	k, kp := q.K, q.kpad
	au = au[:2*k]
	full := k &^ 15
	var tail [32]uint8
	copy(tail[:16], au[full:k])
	copy(tail[16:], au[k+full:])
	g := (c1 - c0) / 4
	if g > 0 {
		w := q.w8[c0*kp : (c0+4*g)*kp]
		cs := q.colSum[c0 : c0+4*g]
		o := out[c0 : ldo+c0+4*g]
		qdot4x2Asm(&au[0], k, &tail[0], full, &w[0], kp, &cs[0], &o[0], ldo, g)
	}
	if c := c0 + 4*g; c < c1 {
		w := q.w8[c*kp : (c+4)*kp]
		cs := q.colSum[c : c+4]
		var o [8]int32
		qdot4x2Asm(&au[0], k, &tail[0], full, &w[0], kp, &cs[0], &o[0], 4, 1)
		copy(out[c:c1], o[:c1-c])
		copy(out[ldo+c:ldo+c1], o[4:4+c1-c])
	}
}
