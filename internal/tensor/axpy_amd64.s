#include "textflag.h"

// 256-bit AVX forms of matmul.go's micro-kernel. A lane is one output column
// and runs the scalar recurrence exactly: VMULPS then VADDPS, one rounding
// each (never VFMADD), terms in argument order. n is a positive multiple
// of 8; loads and stores are unaligned.

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX // OSXSAVE | AVX
	CMPL   CX, $0x18000000
	JNE    no
	XORL   CX, CX
	XGETBV                 // XCR0: the OS saves XMM and YMM state
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVB   $1, ret+0(FP)
	RET
no:
	MOVB   $0, ret+0(FP)
	RET

// func axpy1AVX(d, b0 *float32, n int, a0 float32)
TEXT ·axpy1AVX(SB), NOSPLIT, $0-28
	MOVQ         d+0(FP), DI
	MOVQ         b0+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a0+24(FP), Y0
	XORQ         AX, AX
loop1:
	VMULPS       (SI)(AX*4), Y0, Y5
	VADDPS       (DI)(AX*4), Y5, Y4
	VMOVUPS      Y4, (DI)(AX*4)
	ADDQ         $8, AX
	CMPQ         AX, CX
	JLT          loop1
	VZEROUPPER
	RET

// func axpy4AVX(d, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)
TEXT ·axpy4AVX(SB), NOSPLIT, $0-64
	MOVQ         d+0(FP), DI
	MOVQ         b0+8(FP), SI
	MOVQ         b1+16(FP), R8
	MOVQ         b2+24(FP), R9
	MOVQ         b3+32(FP), R10
	MOVQ         n+40(FP), CX
	VBROADCASTSS a0+48(FP), Y0
	VBROADCASTSS a1+52(FP), Y1
	VBROADCASTSS a2+56(FP), Y2
	VBROADCASTSS a3+60(FP), Y3
	XORQ         AX, AX
loop4:
	VMOVUPS      (DI)(AX*4), Y4
	VMULPS       (SI)(AX*4), Y0, Y5
	VADDPS       Y5, Y4, Y4
	VMULPS       (R8)(AX*4), Y1, Y5
	VADDPS       Y5, Y4, Y4
	VMULPS       (R9)(AX*4), Y2, Y5
	VADDPS       Y5, Y4, Y4
	VMULPS       (R10)(AX*4), Y3, Y5
	VADDPS       Y5, Y4, Y4
	VMOVUPS      Y4, (DI)(AX*4)
	ADDQ         $8, AX
	CMPQ         AX, CX
	JLT          loop4
	VZEROUPPER
	RET

// func axpy4x2AVX(d, e, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3, c0, c1, c2, c3 float32)
TEXT ·axpy4x2AVX(SB), NOSPLIT, $0-88
	MOVQ         d+0(FP), DI
	MOVQ         e+8(FP), DX
	MOVQ         b0+16(FP), SI
	MOVQ         b1+24(FP), R8
	MOVQ         b2+32(FP), R9
	MOVQ         b3+40(FP), R10
	MOVQ         n+48(FP), CX
	VBROADCASTSS a0+56(FP), Y0
	VBROADCASTSS a1+60(FP), Y1
	VBROADCASTSS a2+64(FP), Y2
	VBROADCASTSS a3+68(FP), Y3
	VBROADCASTSS c0+72(FP), Y8
	VBROADCASTSS c1+76(FP), Y9
	VBROADCASTSS c2+80(FP), Y10
	VBROADCASTSS c3+84(FP), Y11
	XORQ         AX, AX
loop4x2:
	VMOVUPS      (DI)(AX*4), Y4
	VMOVUPS      (DX)(AX*4), Y6
	VMOVUPS      (SI)(AX*4), Y12
	VMULPS       Y12, Y0, Y5
	VMULPS       Y12, Y8, Y7
	VADDPS       Y5, Y4, Y4
	VADDPS       Y7, Y6, Y6
	VMOVUPS      (R8)(AX*4), Y12
	VMULPS       Y12, Y1, Y5
	VMULPS       Y12, Y9, Y7
	VADDPS       Y5, Y4, Y4
	VADDPS       Y7, Y6, Y6
	VMOVUPS      (R9)(AX*4), Y12
	VMULPS       Y12, Y2, Y5
	VMULPS       Y12, Y10, Y7
	VADDPS       Y5, Y4, Y4
	VADDPS       Y7, Y6, Y6
	VMOVUPS      (R10)(AX*4), Y12
	VMULPS       Y12, Y3, Y5
	VMULPS       Y12, Y11, Y7
	VADDPS       Y5, Y4, Y4
	VADDPS       Y7, Y6, Y6
	VMOVUPS      Y4, (DI)(AX*4)
	VMOVUPS      Y6, (DX)(AX*4)
	ADDQ         $8, AX
	CMPQ         AX, CX
	JLT          loop4x2
	VZEROUPPER
	RET
