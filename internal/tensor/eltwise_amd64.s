#include "textflag.h"

// 256-bit AVX forms of the element-wise selects of ops.go: a lane is one
// element and produces the bits of the Go loop's branch, without the branch.
// n is a positive multiple of 8; loads and stores are unaligned.

// func reluAVX(d, a *float32, n int)
// d = a > 0 ? a : +0. MAXPS returns its second source when either is NaN or
// both are zero, so with +0 second, NaN and -0 come out as +0.
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ    d+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    n+16(FP), CX
	VXORPS  Y0, Y0, Y0
	XORQ    AX, AX
relu:
	VMOVUPS (SI)(AX*4), Y1
	VMAXPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     relu
	VZEROUPPER
	RET

// func reluGradAVX(d, a, grad *float32, n int)
// d = a > 0 ? grad : +0: the ordered greater-than mask (false on NaN) ANDed
// onto grad's bits.
TEXT ·reluGradAVX(SB), NOSPLIT, $0-32
	MOVQ    d+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    grad+16(FP), DX
	MOVQ    n+24(FP), CX
	VXORPS  Y0, Y0, Y0
	XORQ    AX, AX
relugrad:
	VMOVUPS (SI)(AX*4), Y1
	VCMPPS  $0x1e, Y0, Y1, Y1 // a > 0, quiet
	VANDPS  (DX)(AX*4), Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     relugrad
	VZEROUPPER
	RET

// func maskMulAVX(d, a, m *float32, n int)
// d = m != 0 ? a*m : +0: one VMULPS (the scalar's single rounding), then the
// not-equal mask (true on NaN, as Go's !=) ANDed onto the product's bits.
TEXT ·maskMulAVX(SB), NOSPLIT, $0-32
	MOVQ    d+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    m+16(FP), DX
	MOVQ    n+24(FP), CX
	VXORPS  Y0, Y0, Y0
	XORQ    AX, AX
maskmul:
	VMOVUPS (DX)(AX*4), Y1
	VMOVUPS (SI)(AX*4), Y2
	VMULPS  Y1, Y2, Y2
	VCMPPS  $0x04, Y0, Y1, Y1 // m != 0
	VANDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     maskmul
	VZEROUPPER
	RET
