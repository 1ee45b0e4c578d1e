#include "textflag.h"

// func adamAVX(w, m, v, grad *float32, n int, k *AdamCoef)
// A lane is one element and runs AdamStep's Go loop exactly, one rounding
// per instruction: VMULPS and VADDPS for the moments (never VFMADD), then,
// four lanes at a time, VCVTPS2PD, the divisions by the bias corrections,
// VSQRTPD, VADDPD of epsilon, VMULPD by the learning rate, the VDIVPD of the
// step, VCVTPD2PS and the VSUBPS from w. n is a positive multiple of 8;
// loads and stores are unaligned.
TEXT ·adamAVX(SB), NOSPLIT, $0-48
	MOVQ         w+0(FP), DI
	MOVQ         m+8(FP), SI
	MOVQ         v+16(FP), DX
	MOVQ         grad+24(FP), R8
	MOVQ         n+32(FP), CX
	MOVQ         k+40(FP), AX
	VBROADCASTSS 0(AX), Y8   // B1
	VBROADCASTSS 4(AX), Y9   // C1
	VBROADCASTSS 8(AX), Y10  // B2
	VBROADCASTSS 12(AX), Y11 // C2
	VBROADCASTSD 16(AX), Y12 // BC1
	VBROADCASTSD 24(AX), Y13 // BC2
	VBROADCASTSD 32(AX), Y14 // LR
	VBROADCASTSD 40(AX), Y15 // Eps
	XORQ         BX, BX

loop:
	VMOVUPS      (R8)(BX*4), Y0 // g
	VMULPS       (SI)(BX*4), Y8, Y1
	VMULPS       Y0, Y9, Y2
	VADDPS       Y2, Y1, Y1     // m = B1*m + C1*g
	VMOVUPS      Y1, (SI)(BX*4)
	VMULPS       (DX)(BX*4), Y10, Y3
	VMULPS       Y0, Y11, Y2
	VMULPS       Y0, Y2, Y2
	VADDPS       Y2, Y3, Y3     // v = B2*v + (C2*g)*g
	VMOVUPS      Y3, (DX)(BX*4)

	// Lanes 0-3 into X4, lanes 4-7 into X6.
	VCVTPS2PD    X1, Y4
	VCVTPS2PD    X3, Y5
	VEXTRACTF128 $1, Y1, X6
	VEXTRACTF128 $1, Y3, X7
	VCVTPS2PD    X6, Y6
	VCVTPS2PD    X7, Y7
	VDIVPD       Y12, Y4, Y4    // mh = m/BC1
	VDIVPD       Y12, Y6, Y6
	VDIVPD       Y13, Y5, Y5    // vh = v/BC2
	VDIVPD       Y13, Y7, Y7
	VSQRTPD      Y5, Y5
	VSQRTPD      Y7, Y7
	VADDPD       Y15, Y5, Y5    // sqrt(vh) + Eps
	VADDPD       Y15, Y7, Y7
	VMULPD       Y4, Y14, Y4    // LR*mh
	VMULPD       Y6, Y14, Y6
	VDIVPD       Y5, Y4, Y4     // LR*mh / (sqrt(vh) + Eps)
	VDIVPD       Y7, Y6, Y6
	VCVTPD2PSY   Y4, X4
	VCVTPD2PSY   Y6, X6
	VINSERTF128  $1, X6, Y4, Y4

	VMOVUPS      (DI)(BX*4), Y5
	VSUBPS       Y4, Y5, Y5     // w -= step
	VMOVUPS      Y5, (DI)(BX*4)
	ADDQ         $8, BX
	CMPQ         BX, CX
	JLT          loop
	VZEROUPPER
	RET
