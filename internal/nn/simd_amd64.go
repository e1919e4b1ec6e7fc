package nn

// useAVX2 selects the AVX2 kernels in simd_amd64.s. It is fixed at
// start-up from the CPU and the OS: CPUID leaf 1 must report OSXSAVE and
// AVX, XGETBV must show the OS saving XMM and YMM state, and leaf 7 must
// report AVX2.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		avx      = 1 << 28 // CPUID.1:ECX
		avx2     = 1 << 5  // CPUID.(7,0):EBX
		xmmYmmOS = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmmOS != xmmYmmOS {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The assembly kernels take raw pointers; their safe wrappers in
// simd.go slice every operand to the extent the kernel reads or writes
// before taking its address, so an index error panics in Go.

//go:noescape
func gemmRowAsm(a *float64, astep int, b, c *float64, k, n int)

//go:noescape
func gemmTransB4x8Asm(a *float64, lda int, panel *float64, k int, c *float64, ldc, groups int)

//go:noescape
func qdot4Asm(au *uint8, tail *uint8, full int, w *int8, kpad int, colSum, out *int32, groups int)

//go:noescape
func qdot4x2Asm(au *uint8, lda int, tail *uint8, full int, w *int8, kpad int, colSum, out *int32, ldo, groups int)

//go:noescape
func absMaxAsm(a *float64, n int) float64

//go:noescape
func quantRowAsm(a *float64, n int, inv float64, dst *uint8) int32
