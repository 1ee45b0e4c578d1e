package tensor

// haveAVX says whether the CPU and the OS support 256-bit AVX (CPUID and
// XGETBV, read once at init). The kernels of matmul.go then run in the
// assembly below; package tests flip it to pin both paths to each other.
var haveAVX = cpuHasAVX()

func cpuHasAVX() bool

// The AVX forms of matmul.go's kernels (axpy_amd64.s states their
// contracts). Every pointer must have the elements the contract reads or
// writes behind it; the Go wrappers check that before calling.

//go:noescape
func axpy1AVX(d, b0 *float32, n int, a0 float32)

//go:noescape
func tile4AVX(d *float32, ldd int, a *float32, lda, ast int, b *float32, ldb, k, n int, skip bool)

//go:noescape
func termsAVX(d *float32, n int, b *float32, ldb int, idx *int32, val *float32, nt int)
