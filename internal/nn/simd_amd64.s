#include "textflag.h"

// AVX2 kernels for the GEMMs in gemm.go and qgemm.go. Every float64
// output is formed by the same IEEE multiplies and adds, in the same
// order, as the portable Go kernel, so results are bit-identical:
// products and sums use separate VMULPD/VADDPD (never a fused
// multiply-add, which rounds once instead of twice). Each function does
// bounded work (one C row over one k block, one strip of 4×8 tiles, one
// int8 activation row) because an assembly function cannot be
// preempted.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemmRowAsm(a *float64, astep int, b, c *float64, k, n int)
//
// c[j] += Σ_p a[p·astep]·b[p·n+j] in the order of gemmRowGo: four
// k-steps per group, c[j] += ((a0·b0[j] + a1·b1[j]) + a2·b2[j]) + a3·b3[j],
// a group whose four coefficients are all ±0 skipped, then single
// steps c[j] += a·b[j] for the k%4 tail, each skipped when a is ±0.
TEXT ·gemmRowAsm(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ astep+8(FP), R8
	SHLQ $3, R8              // coefficient stride in bytes
	MOVQ b+16(FP), DI        // b row p
	MOVQ c+24(FP), DX
	MOVQ k+32(FP), CX
	MOVQ n+40(FP), BX
	MOVQ BX, R9
	SHLQ $3, R9              // b row stride in bytes
	MOVQ BX, R10
	ANDQ $-4, R10            // columns handled four lanes at a time

group:
	CMPQ CX, $4
	JLT  single
	// Skip the group when all four coefficients are ±0: OR their bits
	// and shift the sign out.
	MOVQ (SI), AX
	LEAQ (SI)(R8*1), R11
	ORQ  (R11), AX
	LEAQ (R11)(R8*1), R12
	ORQ  (R12), AX
	LEAQ (R12)(R8*1), R13
	ORQ  (R13), AX
	SHLQ $1, AX
	JZ   nextgroup
	VBROADCASTSD (SI), Y0
	VBROADCASTSD (R11), Y1
	VBROADCASTSD (R12), Y2
	VBROADCASTSD (R13), Y3
	LEAQ (DI)(R9*1), R11     // b row p+1
	LEAQ (R11)(R9*1), R12    // b row p+2
	LEAQ (R12)(R9*1), R13    // b row p+3
	XORQ AX, AX

group4:
	CMPQ AX, R10
	JGE  group1
	VMULPD  (DI)(AX*8), Y0, Y4
	VMULPD  (R11)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R12)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R13)(AX*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (DX)(AX*8), Y6
	VADDPD  Y4, Y6, Y6
	VMOVUPD Y6, (DX)(AX*8)
	ADDQ    $4, AX
	JMP     group4

group1:
	CMPQ AX, BX
	JGE  nextgroup
	VMULSD (DI)(AX*8), X0, X4
	VMULSD (R11)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R12)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R13)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VMOVSD (DX)(AX*8), X6
	VADDSD X4, X6, X6
	VMOVSD X6, (DX)(AX*8)
	INCQ   AX
	JMP    group1

nextgroup:
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R9*4), DI
	SUBQ $4, CX
	JMP  group

single:
	TESTQ CX, CX
	JZ    done
	MOVQ  (SI), AX
	SHLQ  $1, AX
	JZ    nextsingle
	VBROADCASTSD (SI), Y0
	XORQ  AX, AX

single4:
	CMPQ AX, R10
	JGE  single1
	VMULPD  (DI)(AX*8), Y0, Y4
	VMOVUPD (DX)(AX*8), Y6
	VADDPD  Y4, Y6, Y6
	VMOVUPD Y6, (DX)(AX*8)
	ADDQ    $4, AX
	JMP     single4

single1:
	CMPQ AX, BX
	JGE  nextsingle
	VMULSD (DI)(AX*8), X0, X4
	VMOVSD (DX)(AX*8), X6
	VADDSD X4, X6, X6
	VMOVSD X6, (DX)(AX*8)
	INCQ   AX
	JMP    single1

nextsingle:
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ CX
	JMP  single

done:
	VZEROUPPER
	RET

// func gemmTransB4x8Asm(a *float64, lda int, panel *float64, k int, c *float64, ldc, groups int)
//
// For each of groups consecutive 4-row blocks of A (rows lda apart):
// c[r·ldc+j] = Σ_p a[r·lda+p]·panel[8p+j] for r < 4, j < 8, each output
// a sequential sum over p = 0..k-1 starting from +0, as gemmTransBTile
// forms it. panel holds eight B rows interleaved tap by tap.
TEXT ·gemmTransB4x8Asm(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R8
	SHLQ $3, R8              // A row stride in bytes
	MOVQ k+24(FP), CX
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R9
	SHLQ $3, R9              // C row stride in bytes
	MOVQ groups+48(FP), BX

tile:
	TESTQ BX, BX
	JZ    tiledone
	MOVQ  panel+16(FP), DI
	LEAQ  (SI)(R8*1), R10    // A row 1
	LEAQ  (R10)(R8*1), R11   // A row 2
	LEAQ  (R11)(R8*1), R12   // A row 3
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX

tap:
	CMPQ AX, CX
	JGE  tilestore
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VBROADCASTSD (SI)(AX*8), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (R10)(AX*8), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y2, Y2
	VMULPD Y9, Y13, Y15
	VADDPD Y15, Y3, Y3
	VBROADCASTSD (R11)(AX*8), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y5, Y5
	VBROADCASTSD (R12)(AX*8), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y6, Y6
	VMULPD Y9, Y13, Y15
	VADDPD Y15, Y7, Y7
	ADDQ   $64, DI
	INCQ   AX
	JMP    tap

tilestore:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    R9, DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ    R9, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ    R9, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	ADDQ    R9, DX
	LEAQ    (R12)(R8*1), SI  // next block's row 0
	DECQ    BX
	JMP     tile

tiledone:
	VZEROUPPER
	RET

// func qdot4Asm(au *uint8, tail *uint8, full int, w *int8, kpad int, colSum, out *int32, groups int)
//
// Exact int32 dot products of one biased activation row against groups
// blocks of four int8 weight rows (kpad bytes apart, zero past K):
// out[c] = Σ_p au[p]·w[c][p] − 128·colSum[c], which is Σ (au[p]−128)·w[c][p].
// au supplies taps [0, full); tail supplies the 16 taps from full when
// full < kpad. Activations are zero-extended and weights sign-extended
// to int16, then VPMADDWD multiplies and pairs them in int32: |au·w| ≤
// 255·127, so nothing saturates, and integer sums are exact in any order.
TEXT ·qdot4Asm(SB), NOSPLIT, $0-64
	MOVQ au+0(FP), SI
	MOVQ tail+8(FP), R13
	MOVQ full+16(FP), R12
	MOVQ w+24(FP), DI
	MOVQ kpad+32(FP), CX
	MOVQ colSum+40(FP), R8
	MOVQ out+48(FP), DX
	MOVQ groups+56(FP), BX

qgroup:
	TESTQ BX, BX
	JZ    qdone
	LEAQ  (DI)(CX*1), R9     // weight row 1
	LEAQ  (R9)(CX*1), R10    // weight row 2
	LEAQ  (R10)(CX*1), R11   // weight row 3
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX

qchunk:
	CMPQ AX, R12
	JGE  qtail
	VPMOVZXBW (SI)(AX*1), Y4
	VPMOVSXBW (DI)(AX*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y0, Y0
	VPMOVSXBW (R9)(AX*1), Y6
	VPMADDWD  Y6, Y4, Y6
	VPADDD    Y6, Y1, Y1
	VPMOVSXBW (R10)(AX*1), Y7
	VPMADDWD  Y7, Y4, Y7
	VPADDD    Y7, Y2, Y2
	VPMOVSXBW (R11)(AX*1), Y8
	VPMADDWD  Y8, Y4, Y8
	VPADDD    Y8, Y3, Y3
	ADDQ      $16, AX
	JMP       qchunk

qtail:
	CMPQ AX, CX
	JGE  qreduce
	VPMOVZXBW (R13), Y4
	VPMOVSXBW (DI)(AX*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y0, Y0
	VPMOVSXBW (R9)(AX*1), Y6
	VPMADDWD  Y6, Y4, Y6
	VPADDD    Y6, Y1, Y1
	VPMOVSXBW (R10)(AX*1), Y7
	VPMADDWD  Y7, Y4, Y7
	VPADDD    Y7, Y2, Y2
	VPMOVSXBW (R11)(AX*1), Y8
	VPMADDWD  Y8, Y4, Y8
	VPADDD    Y8, Y3, Y3

qreduce:
	// Horizontal sums: two rounds of pairwise adds leave column c's
	// partial sums in lane c of each 128-bit half.
	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VMOVDQU      (R8), X2
	VPSLLD       $7, X2, X2
	VPSUBD       X2, X0, X0
	VMOVDQU      X0, (DX)
	ADDQ         $16, R8
	ADDQ         $16, DX
	LEAQ         (R11)(CX*1), DI // next block's row 0
	DECQ         BX
	JMP          qgroup

qdone:
	VZEROUPPER
	RET

// func absMaxAsm(a *float64, n int) float64
//
// The largest |a[i]| over n elements (n a positive multiple of 4), NaN
// ignored, as the scan in absMaxGo finds it: VMAXPD returns its second
// source when the first is NaN, so a NaN never displaces the running
// maximum, and a maximum of exact values does not depend on order.
TEXT ·absMaxAsm(SB), NOSPLIT, $0-24
	MOVQ a+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ $0x7fffffffffffffff, AX
	VMOVQ AX, X15
	VBROADCASTSD X15, Y15
	VXORPD Y0, Y0, Y0
	XORQ AX, AX

amax4:
	CMPQ AX, CX
	JGE  amaxreduce
	VANDPD (SI)(AX*8), Y15, Y1
	VMAXPD Y0, Y1, Y0
	ADDQ   $4, AX
	JMP    amax4

amaxreduce:
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X0, X1, X0
	VPERMILPD    $1, X0, X1
	VMAXPD       X0, X1, X0
	VMOVSD       X0, ret+16(FP)
	VZEROUPPER
	RET

// func quantRowAsm(a *float64, n int, inv float64, dst *uint8) int32
//
// quantRNE(a[p]·inv)+128 into dst[p] for n elements (a positive multiple
// of 4), returning the sum of the signed values: the same multiply, the
// same round-to-nearest-even add of roundEvenMagic and the same low 32
// bits, clamped to ±127, as quantizeRowGo.
TEXT ·quantRowAsm(SB), NOSPLIT, $0-36
	MOVQ a+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSD inv+16(FP), Y15
	MOVQ dst+24(FP), DI
	MOVQ $0x4338000000000000, AX // roundEvenMagic
	VMOVQ AX, X14
	VBROADCASTSD X14, Y14
	MOVL $127, AX
	VMOVD AX, X13
	VPBROADCASTD X13, X13
	MOVL $-127, AX
	VMOVD AX, X12
	VPBROADCASTD X12, X12
	MOVL $128, AX
	VMOVD AX, X11
	VPBROADCASTD X11, X11
	VPXOR X10, X10, X10
	XORQ AX, AX

quant4:
	CMPQ AX, CX
	JGE  quantdone
	VMULPD       (SI)(AX*8), Y15, Y0
	VADDPD       Y14, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VSHUFPS      $0x88, X1, X0, X0 // low 32 bits of each double
	VPMINSD      X13, X0, X0
	VPMAXSD      X12, X0, X0
	VPADDD       X0, X10, X10
	VPADDD       X11, X0, X0
	VPACKUSDW    X0, X0, X0
	VPACKUSWB    X0, X0, X0
	VMOVD        X0, (DI)(AX*1)
	ADDQ         $4, AX
	JMP          quant4

quantdone:
	VPHADDD X10, X10, X10
	VPHADDD X10, X10, X10
	VMOVD   X10, AX
	MOVL    AX, ret+32(FP)
	VZEROUPPER
	RET

// func qdot4x2Asm(au *uint8, lda int, tail *uint8, full int, w *int8, kpad int, colSum, out *int32, ldo, groups int)
//
// qdot4Asm for two activation rows at once (au and au+lda bytes; their
// taps from full are tail[0:16] and tail[16:32]), so each sign-extended
// weight chunk feeds both rows. Row 1's outputs go ldo int32s after row
// 0's.
TEXT ·qdot4x2Asm(SB), NOSPLIT, $0-80
	MOVQ full+24(FP), R12
	MOVQ w+32(FP), DI
	MOVQ kpad+40(FP), CX
	MOVQ colSum+48(FP), R8
	MOVQ out+56(FP), DX
	MOVQ groups+72(FP), BX

q2group:
	TESTQ BX, BX
	JZ    q2done
	MOVQ  au+0(FP), SI
	MOVQ  lda+8(FP), R13
	ADDQ  SI, R13            // activation row 1
	LEAQ  (DI)(CX*1), R9     // weight row 1
	LEAQ  (R9)(CX*1), R10    // weight row 2
	LEAQ  (R10)(CX*1), R11   // weight row 3
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ  AX, AX

q2chunk:
	CMPQ AX, R12
	JGE  q2tail
	VPMOVZXBW (SI)(AX*1), Y8
	VPMOVZXBW (R13)(AX*1), Y9

q2body:
	VPMOVSXBW (DI)(AX*1), Y10
	VPMADDWD  Y10, Y8, Y11
	VPADDD    Y11, Y0, Y0
	VPMADDWD  Y10, Y9, Y12
	VPADDD    Y12, Y4, Y4
	VPMOVSXBW (R9)(AX*1), Y10
	VPMADDWD  Y10, Y8, Y11
	VPADDD    Y11, Y1, Y1
	VPMADDWD  Y10, Y9, Y12
	VPADDD    Y12, Y5, Y5
	VPMOVSXBW (R10)(AX*1), Y10
	VPMADDWD  Y10, Y8, Y11
	VPADDD    Y11, Y2, Y2
	VPMADDWD  Y10, Y9, Y12
	VPADDD    Y12, Y6, Y6
	VPMOVSXBW (R11)(AX*1), Y10
	VPMADDWD  Y10, Y8, Y11
	VPADDD    Y11, Y3, Y3
	VPMADDWD  Y10, Y9, Y12
	VPADDD    Y12, Y7, Y7
	ADDQ      $16, AX
	JMP       q2chunk

q2tail:
	CMPQ AX, CX
	JGE  q2reduce
	MOVQ tail+16(FP), SI
	VPMOVZXBW (SI), Y8
	VPMOVZXBW 16(SI), Y9
	MOVQ CX, R12             // one more chunk, then stop
	JMP  q2body

q2reduce:
	MOVQ         full+24(FP), R12
	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPHADDD      Y5, Y4, Y4
	VPHADDD      Y7, Y6, Y6
	VPHADDD      Y6, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDD       X5, X4, X4
	VMOVDQU      (R8), X2
	VPSLLD       $7, X2, X2
	VPSUBD       X2, X0, X0
	VPSUBD       X2, X4, X4
	VMOVDQU      X0, (DX)
	MOVQ         ldo+64(FP), AX
	VMOVDQU      X4, (DX)(AX*4)
	ADDQ         $16, R8
	ADDQ         $16, DX
	LEAQ         (R11)(CX*1), DI // next block's row 0
	DECQ         BX
	JMP          q2group

q2done:
	VZEROUPPER
	RET
