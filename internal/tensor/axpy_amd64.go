package tensor

// haveAVX says whether the CPU and the OS support 256-bit AVX (CPUID and
// XGETBV, read once at init). The micro-kernel of matmul.go then runs its
// first len(d)&^7 columns through the assembly below, eight to a register;
// package tests flip it to pin both paths to each other.
var haveAVX = cpuHasAVX()

func cpuHasAVX() bool

// The AVX forms of axpy1, axpy4 and axpy4x2 over columns [0, n), n a
// positive multiple of 8. Every pointer must have n elements behind it.

//go:noescape
func axpy1AVX(d, b0 *float32, n int, a0 float32)

//go:noescape
func axpy4AVX(d, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)

//go:noescape
func axpy4x2AVX(d, e, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3, c0, c1, c2, c3 float32)
