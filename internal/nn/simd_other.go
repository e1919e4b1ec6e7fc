//go:build !amd64

package nn

// useAVX2 is false off amd64: the portable kernels run everywhere else.
const useAVX2 = false

// The assembly kernels exist only on amd64; these stand-ins keep the
// shared wrappers in simd.go compiling and are never called.

func gemmRowAsm(a *float64, astep int, b, c *float64, k, n int) {
	panic("nn: AVX2 kernel called off amd64")
}

func gemmTransB4x8Asm(a *float64, lda int, panel *float64, k int, c *float64, ldc, groups int) {
	panic("nn: AVX2 kernel called off amd64")
}

func qdot4Asm(au *uint8, tail *uint8, full int, w *int8, kpad int, colSum, out *int32, groups int) {
	panic("nn: AVX2 kernel called off amd64")
}

func qdot4x2Asm(au *uint8, lda int, tail *uint8, full int, w *int8, kpad int, colSum, out *int32, ldo, groups int) {
	panic("nn: AVX2 kernel called off amd64")
}

func absMaxAsm(a *float64, n int) float64 {
	panic("nn: AVX2 kernel called off amd64")
}

func quantRowAsm(a *float64, n int, inv float64, dst *uint8) int32 {
	panic("nn: AVX2 kernel called off amd64")
}
