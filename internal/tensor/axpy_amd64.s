#include "textflag.h"

// 256-bit AVX forms of matmul.go's kernels. A lane is one output column and
// runs the scalar recurrence exactly: VMULPS then VADDPS, one rounding each
// (never VFMADD), terms in ascending order. Loads and stores are unaligned;
// the columns past the last multiple of 8 go through VMASKMOVPS, which
// neither reads nor writes a masked-off lane.

// maskTable<>+4*(8-r) is r all-ones lanes followed by zero lanes, r = 0..8.
DATA maskTable<>+0(SB)/4, $0xffffffff
DATA maskTable<>+4(SB)/4, $0xffffffff
DATA maskTable<>+8(SB)/4, $0xffffffff
DATA maskTable<>+12(SB)/4, $0xffffffff
DATA maskTable<>+16(SB)/4, $0xffffffff
DATA maskTable<>+20(SB)/4, $0xffffffff
DATA maskTable<>+24(SB)/4, $0xffffffff
DATA maskTable<>+28(SB)/4, $0xffffffff
DATA maskTable<>+32(SB)/4, $0
DATA maskTable<>+36(SB)/4, $0
DATA maskTable<>+40(SB)/4, $0
DATA maskTable<>+44(SB)/4, $0
DATA maskTable<>+48(SB)/4, $0
DATA maskTable<>+52(SB)/4, $0
DATA maskTable<>+56(SB)/4, $0
DATA maskTable<>+60(SB)/4, $0
GLOBL maskTable<>(SB), RODATA|NOPTR, $64

// LANEMASK sets y to the mask of the first clamp(r-off, 0, 8) lanes; t and u
// are scratch.
#define LANEMASK(r, off, t, u, y) \
	MOVQ         r, t; \
	SUBQ         $off, t; \
	MOVQ         $8, u; \
	CMPQ         t, u; \
	CMOVQGT      u, t; \
	XORQ         u, u; \
	CMPQ         t, u; \
	CMOVQLT      u, t; \
	NEGQ         t; \
	LEAQ         maskTable<>+32(SB), u; \
	VMOVUPS      (u)(t*4), y

// The tile: four output rows by one 16-column strip, the sums in Y0-Y7 (row
// r in Y(2r), Y(2r+1)) for the whole k range; the strip's b row in Y8, Y9,
// a(r, kk) broadcast into Y10, products in Y11, Y12, +0 in Y13 and the column
// masks of a partial strip in Y14, Y15. SI, R9, R10, R11 point at a(r, 0),
// AX is kk*ast in bytes, CX points at b(kk, strip), R8 counts terms down.

#define TERM(ap, s0, s1) \
	VBROADCASTSS (ap)(AX*1), Y10; \
	VMULPS       Y8, Y10, Y11; \
	VMULPS       Y9, Y10, Y12; \
	VADDPS       Y11, s0, s0; \
	VADDPS       Y12, s1, s1

// A masked term: the product ANDed with a != 0 (true on NaN, as Go's !=),
// so a zero a adds +0 whatever its b.
#define MASKEDTERM(ap, s0, s1) \
	VBROADCASTSS (ap)(AX*1), Y10; \
	VMULPS       Y8, Y10, Y11; \
	VMULPS       Y9, Y10, Y12; \
	VCMPPS       $0x04, Y13, Y10, Y10; \
	VANDPS       Y10, Y11, Y11; \
	VANDPS       Y10, Y12, Y12; \
	VADDPS       Y11, s0, s0; \
	VADDPS       Y12, s1, s1

#define TERMS \
	TERM(SI, Y0, Y1); \
	TERM(R9, Y2, Y3); \
	TERM(R10, Y4, Y5); \
	TERM(R11, Y6, Y7)

#define MASKEDTERMS \
	MASKEDTERM(SI, Y0, Y1); \
	MASKEDTERM(R9, Y2, Y3); \
	MASKEDTERM(R10, Y4, Y5); \
	MASKEDTERM(R11, Y6, Y7)

#define LOADB \
	VMOVUPS      (CX), Y8; \
	VMOVUPS      32(CX), Y9

#define LOADBPART \
	VMASKMOVPS   (CX), Y14, Y8; \
	VMASKMOVPS   32(CX), Y15, Y9

// DROWS addresses the strip's four d rows as DI, CX, DI+2*AX, CX+2*AX, with
// AX = ldd in bytes and CX = DI+AX.
#define DROWS \
	MOVQ         ldd+8(FP), AX; \
	SHLQ         $2, AX; \
	LEAQ         (DI)(AX*1), CX

#define LOADD \
	DROWS; \
	VMOVUPS      (DI), Y0; \
	VMOVUPS      32(DI), Y1; \
	VMOVUPS      (CX), Y2; \
	VMOVUPS      32(CX), Y3; \
	VMOVUPS      (DI)(AX*2), Y4; \
	VMOVUPS      32(DI)(AX*2), Y5; \
	VMOVUPS      (CX)(AX*2), Y6; \
	VMOVUPS      32(CX)(AX*2), Y7

#define STORED \
	DROWS; \
	VMOVUPS      Y0, (DI); \
	VMOVUPS      Y1, 32(DI); \
	VMOVUPS      Y2, (CX); \
	VMOVUPS      Y3, 32(CX); \
	VMOVUPS      Y4, (DI)(AX*2); \
	VMOVUPS      Y5, 32(DI)(AX*2); \
	VMOVUPS      Y6, (CX)(AX*2); \
	VMOVUPS      Y7, 32(CX)(AX*2)

#define LOADDPART \
	DROWS; \
	VMASKMOVPS   (DI), Y14, Y0; \
	VMASKMOVPS   32(DI), Y15, Y1; \
	VMASKMOVPS   (CX), Y14, Y2; \
	VMASKMOVPS   32(CX), Y15, Y3; \
	VMASKMOVPS   (DI)(AX*2), Y14, Y4; \
	VMASKMOVPS   32(DI)(AX*2), Y15, Y5; \
	VMASKMOVPS   (CX)(AX*2), Y14, Y6; \
	VMASKMOVPS   32(CX)(AX*2), Y15, Y7

#define STOREDPART \
	DROWS; \
	VMASKMOVPS   Y0, Y14, (DI); \
	VMASKMOVPS   Y1, Y15, 32(DI); \
	VMASKMOVPS   Y2, Y14, (CX); \
	VMASKMOVPS   Y3, Y15, 32(CX); \
	VMASKMOVPS   Y4, Y14, (DI)(AX*2); \
	VMASKMOVPS   Y5, Y15, 32(DI)(AX*2); \
	VMASKMOVPS   Y6, Y14, (CX)(AX*2); \
	VMASKMOVPS   Y7, Y15, 32(CX)(AX*2)

// KSTART rewinds the term loop to the strip's first term; KNEXT steps it and
// sets the flags Z after the last.
#define KSTART \
	MOVQ         DX, CX; \
	XORQ         AX, AX; \
	MOVQ         k+56(FP), R8

#define KNEXT \
	ADDQ         R12, AX; \
	ADDQ         R13, CX; \
	DECQ         R8

// NONFINITE clears the flag Z when some sum is Inf or NaN: 0*s is NaN
// exactly for those, and a sum of ±0s and NaNs is NaN if any term is.
#define NONFINITE \
	VMULPS       Y13, Y0, Y10; \
	VMULPS       Y13, Y1, Y11; \
	VADDPS       Y11, Y10, Y10; \
	VMULPS       Y13, Y2, Y11; \
	VADDPS       Y11, Y10, Y10; \
	VMULPS       Y13, Y3, Y11; \
	VADDPS       Y11, Y10, Y10; \
	VMULPS       Y13, Y4, Y11; \
	VADDPS       Y11, Y10, Y10; \
	VMULPS       Y13, Y5, Y11; \
	VADDPS       Y11, Y10, Y10; \
	VMULPS       Y13, Y6, Y11; \
	VADDPS       Y11, Y10, Y10; \
	VMULPS       Y13, Y7, Y11; \
	VADDPS       Y11, Y10, Y10; \
	VCMPPS       $0x03, Y10, Y10, Y10; \
	VMOVMSKPS    Y10, AX; \
	TESTL        AX, AX

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
// n is a positive multiple of 8.
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

// func tile4AVX(d *float32, ldd int, a *float32, lda, ast int, b *float32, ldb, k, n int, skip bool)
// Adds to d(r, j) = d[r*ldd+j], r < 4, j < n, the terms a(r, kk)*b(kk, j)
// for kk = 0 .. k-1 in order, where a(r, kk) = a[r*lda+kk*ast] and
// b(kk, j) = b[kk*ldb+j]; k > 0, n > 0. With skip set, terms whose a is
// zero are left out: a strip runs every term and is run again from d with
// the masked product only if one of its sums came out non-finite. A 0*Inf or
// 0*NaN term always makes a sum non-finite; without one, every zero-a term
// added ±0, which leaves a sum that is not -0 unchanged (d must hold no -0;
// see matmul.go).
TEXT ·tile4AVX(SB), NOSPLIT, $0-73
	MOVQ         d+0(FP), DI
	MOVQ         a+16(FP), SI
	MOVQ         lda+24(FP), AX
	SHLQ         $2, AX
	LEAQ         (SI)(AX*1), R9
	LEAQ         (R9)(AX*1), R10
	LEAQ         (R10)(AX*1), R11
	MOVQ         ast+32(FP), R12
	SHLQ         $2, R12
	MOVQ         b+40(FP), DX
	MOVQ         ldb+48(FP), R13
	SHLQ         $2, R13
	MOVQ         n+64(FP), BX
	VXORPS       Y13, Y13, Y13

strip:
	CMPQ         BX, $16
	JLT          part
	LOADD
	KSTART
loop:
	LOADB
	TERMS
	KNEXT
	JNZ          loop
	CMPB         skip+72(FP), $0
	JEQ          store
	NONFINITE
	JEQ          store
	LOADD
	KSTART
mloop:
	LOADB
	MASKEDTERMS
	KNEXT
	JNZ          mloop
store:
	STORED
	ADDQ         $64, DI
	ADDQ         $64, DX
	SUBQ         $16, BX
	JMP          strip

part:
	TESTQ        BX, BX
	JEQ          done
	LANEMASK(BX, 0, R8, AX, Y14)
	LANEMASK(BX, 8, R8, AX, Y15)
	LOADDPART
	KSTART
ploop:
	LOADBPART
	TERMS
	KNEXT
	JNZ          ploop
	CMPB         skip+72(FP), $0
	JEQ          pstore
	NONFINITE
	JEQ          pstore
	LOADDPART
	KSTART
pmloop:
	LOADBPART
	MASKEDTERMS
	KNEXT
	JNZ          pmloop
pstore:
	STOREDPART

done:
	VZEROUPPER
	RET

// func termsAVX(d *float32, n int, b *float32, ldb int, idx *int32, val *float32, nt int)
// Adds to d[j], j < n, the terms val[p]*b[idx[p]*ldb+j] for p = 0 .. nt-1
// in order: the tile's one-row form, over a list of b rows. Columns go 32
// at a time, their sums in Y0-Y3 for all nt terms, and the last n%32 go 16
// at a time through the column masks in Y4, Y5. n > 0, nt > 0.
TEXT ·termsAVX(SB), NOSPLIT, $0-56
	MOVQ         d+0(FP), DI
	MOVQ         n+8(FP), BX
	MOVQ         b+16(FP), DX
	MOVQ         ldb+24(FP), R13
	SHLQ         $2, R13
	MOVQ         idx+32(FP), R8
	MOVQ         val+40(FP), R9
	MOVQ         nt+48(FP), R10

chunk:
	CMPQ         BX, $32
	JLT          tpart
	VMOVUPS      (DI), Y0
	VMOVUPS      32(DI), Y1
	VMOVUPS      64(DI), Y2
	VMOVUPS      96(DI), Y3
	XORQ         CX, CX
tloop:
	MOVLQSX      (R8)(CX*4), AX
	IMULQ        R13, AX
	ADDQ         DX, AX
	VBROADCASTSS (R9)(CX*4), Y10
	VMULPS       (AX), Y10, Y11
	VMULPS       32(AX), Y10, Y12
	VADDPS       Y11, Y0, Y0
	VADDPS       Y12, Y1, Y1
	VMULPS       64(AX), Y10, Y11
	VMULPS       96(AX), Y10, Y12
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3
	INCQ         CX
	CMPQ         CX, R10
	JLT          tloop
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, DX
	SUBQ         $32, BX
	JMP          chunk

tpart:
	CMPQ         BX, $0
	JLE          tdone
	LANEMASK(BX, 0, CX, AX, Y4)
	LANEMASK(BX, 8, CX, AX, Y5)
	VMASKMOVPS   (DI), Y4, Y0
	VMASKMOVPS   32(DI), Y5, Y1
	XORQ         CX, CX
tploop:
	MOVLQSX      (R8)(CX*4), AX
	IMULQ        R13, AX
	ADDQ         DX, AX
	VBROADCASTSS (R9)(CX*4), Y10
	VMASKMOVPS   (AX), Y4, Y8
	VMASKMOVPS   32(AX), Y5, Y9
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y12
	VADDPS       Y11, Y0, Y0
	VADDPS       Y12, Y1, Y1
	INCQ         CX
	CMPQ         CX, R10
	JLT          tploop
	VMASKMOVPS   Y0, Y4, (DI)
	VMASKMOVPS   Y1, Y5, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, DX
	SUBQ         $16, BX
	JMP          tpart

tdone:
	VZEROUPPER
	RET
