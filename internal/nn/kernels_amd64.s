#include "go_asm.h"
#include "textflag.h"

// The AVX2 spelling of the matmul kernel and of the gradient's row
// update. Same contract as the Go loops in tensor.go, element for
// element: every product is rounded on its own (VMULPD, then VADDPD —
// there is deliberately no fused multiply-add in this file, whatever
// GOAMD64 says), and each destination element takes its terms in the
// order the caller listed them. Lanes run across j, the
// output column; nothing is ever summed across lanes. Go has already
// made every bounds check before these are called.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func gatherNonZeroAVX2(ks *[gatherBlock]int, blk []float64, base int) int
//
// Writes base+k for every non-zero blk[k], ascending, into ks and
// returns how many; len(blk) <= gatherBlock. Four values at a time:
// compare with zero (NEQ_UQ: true for NaN, false for -0, as v != 0 is),
// take the four mask bits, and store base+k+gatherLUT[mask][0..3] — the
// set lanes' positions, packed to the front — at ks[held:], then advance
// held by gatherLUT[mask][4], the number of set lanes. All four slots are
// written whatever the mask; held <= k keeps held+3 inside ks, and the
// slots past the count are overwritten by the next store or never read.
// The len mod 4 tail does the same one value at a time on its bit
// pattern: v+v == 0 exactly for +0 and -0.
TEXT ·gatherNonZeroAVX2(SB), NOSPLIT, $0-48
	MOVQ         ks+0(FP), DI
	MOVQ         blk_base+8(FP), SI
	MOVQ         blk_len+16(FP), CX
	MOVQ         base+32(FP), AX
	LEAQ         ·gatherLUT(SB), R8
	XORQ         DX, DX
	VMOVQ        AX, X1
	VPBROADCASTQ X1, Y1
	MOVQ         $4, R9
	VMOVQ        R9, X2
	VPBROADCASTQ X2, Y2
	VXORPD       Y0, Y0, Y0

gather4:
	CMPQ      CX, $4
	JLT       gather1
	VCMPPD    $4, (SI), Y0, Y3
	VMOVMSKPD Y3, R9
	SHLQ      $6, R9
	VPADDQ    (R8)(R9*1), Y1, Y4
	VMOVDQU   Y4, (DI)(DX*8)
	ADDQ      32(R8)(R9*1), DX
	VPADDQ    Y2, Y1, Y1
	ADDQ      $32, SI
	ADDQ      $4, AX
	SUBQ      $4, CX
	JMP       gather4

gather1:
	TESTQ CX, CX
	JZ    gatherdone
	MOVQ  (SI), R9
	ADDQ  R9, R9
	MOVQ  AX, (DI)(DX*8)
	CMPQ  R9, $1
	SBBQ  $-1, DX
	ADDQ  $8, SI
	INCQ  AX
	DECQ  CX
	JMP   gather1

gatherdone:
	VZEROUPPER
	MOVQ DX, ret+40(FP)
	RET

// One term of one accumulator: tmp = a[k] (broadcast in Y8) * four
// columns of b's row k (R14), rounded; acc += tmp, rounded.
#define TERM(off, acc, tmp) \
	VMULPD off(R14), Y8, tmp; \
	VADDPD tmp, acc, acc

// Load the next gathered k: broadcast a[k] into Y8 and leave R14 at the
// current column tile of b's row k.
#define NEXTK \
	MOVQ         (R8)(R13*8), R14; \
	VBROADCASTSD (SI)(R14*8), Y8;  \
	IMULQ        R12, R14;         \
	ADDQ         BX, R14

// func axpyRowsAVX2(dst, a, b []float64, ks []int, bias []float64, relu bool)
//
// For every j < len(dst), with n = len(dst):
//
//	d := dst[j]
//	for _, k := range ks { d += a[k] * b[k*n+j] }
//	if len(bias) != 0 { d += bias[j] }
//	if relu && d < 0 { d = 0 }
//	dst[j] = d
//
// The destination tile (32, 16 or 4 columns, then single ones) stays in
// registers across the whole of ks, so dst is read and written once.
// The clamp is VMAXPD with the zero first and the value second: MAXPD
// returns its second source when either is NaN or both are zeros, which
// is exactly what `if d < 0 { d = 0 }` leaves of a NaN and of -0.
//
// DI dst, SI a, BX b (advancing with the tile), R8 ks, R9 len(ks),
// R10 bias (advancing), DX len(bias), R11 relu, CX columns left,
// R12 row stride of b in bytes, R13 index into ks, R14 scratch.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-121
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    a_base+24(FP), SI
	MOVQ    b_base+48(FP), BX
	MOVQ    ks_base+72(FP), R8
	MOVQ    ks_len+80(FP), R9
	MOVQ    bias_base+96(FP), R10
	MOVQ    bias_len+104(FP), DX
	MOVBLZX relu+120(FP), R11
	MOVQ    CX, R12
	SHLQ    $3, R12
	VXORPD  Y15, Y15, Y15

tile32:
	CMPQ    CX, $32
	JLT     tile16
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ    R13, R13
	JMP     cond32

loop32:
	NEXTK
	TERM(0, Y0, Y9)
	TERM(32, Y1, Y10)
	TERM(64, Y2, Y11)
	TERM(96, Y3, Y12)
	TERM(128, Y4, Y13)
	TERM(160, Y5, Y14)
	TERM(192, Y6, Y9)
	TERM(224, Y7, Y10)
	INCQ R13

cond32:
	CMPQ   R13, R9
	JLT    loop32
	TESTQ  DX, DX
	JZ     relu32
	VADDPD 0(R10), Y0, Y0
	VADDPD 32(R10), Y1, Y1
	VADDPD 64(R10), Y2, Y2
	VADDPD 96(R10), Y3, Y3
	VADDPD 128(R10), Y4, Y4
	VADDPD 160(R10), Y5, Y5
	VADDPD 192(R10), Y6, Y6
	VADDPD 224(R10), Y7, Y7
	ADDQ   $256, R10

relu32:
	TESTQ  R11, R11
	JZ     store32
	VMAXPD Y0, Y15, Y0
	VMAXPD Y1, Y15, Y1
	VMAXPD Y2, Y15, Y2
	VMAXPD Y3, Y15, Y3
	VMAXPD Y4, Y15, Y4
	VMAXPD Y5, Y15, Y5
	VMAXPD Y6, Y15, Y6
	VMAXPD Y7, Y15, Y7

store32:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, BX
	SUBQ    $32, CX
	JMP     tile32

tile16:
	CMPQ    CX, $16
	JLT     tile4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ    R13, R13
	JMP     cond16

loop16:
	NEXTK
	TERM(0, Y0, Y9)
	TERM(32, Y1, Y10)
	TERM(64, Y2, Y11)
	TERM(96, Y3, Y12)
	INCQ R13

cond16:
	CMPQ   R13, R9
	JLT    loop16
	TESTQ  DX, DX
	JZ     relu16
	VADDPD 0(R10), Y0, Y0
	VADDPD 32(R10), Y1, Y1
	VADDPD 64(R10), Y2, Y2
	VADDPD 96(R10), Y3, Y3
	ADDQ   $128, R10

relu16:
	TESTQ  R11, R11
	JZ     store16
	VMAXPD Y0, Y15, Y0
	VMAXPD Y1, Y15, Y1
	VMAXPD Y2, Y15, Y2
	VMAXPD Y3, Y15, Y3

store16:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $16, CX

tile4:
	CMPQ    CX, $4
	JLT     tile1
	VMOVUPD 0(DI), Y0
	XORQ    R13, R13
	JMP     cond4

loop4:
	NEXTK
	TERM(0, Y0, Y9)
	INCQ R13

cond4:
	CMPQ   R13, R9
	JLT    loop4
	TESTQ  DX, DX
	JZ     relu4
	VADDPD 0(R10), Y0, Y0
	ADDQ   $32, R10

relu4:
	TESTQ  R11, R11
	JZ     store4
	VMAXPD Y0, Y15, Y0

store4:
	VMOVUPD Y0, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $4, CX
	JMP     tile4

	// The n mod 4 tail, one column at a time with the scalar forms of the
	// same two instructions.
tile1:
	TESTQ CX, CX
	JZ    done
	VMOVSD 0(DI), X0
	XORQ   R13, R13
	JMP    cond1

loop1:
	MOVQ   (R8)(R13*8), R14
	VMOVSD (SI)(R14*8), X8
	IMULQ  R12, R14
	VMULSD (BX)(R14*1), X8, X9
	VADDSD X9, X0, X0
	INCQ   R13

cond1:
	CMPQ   R13, R9
	JLT    loop1
	TESTQ  DX, DX
	JZ     relu1
	VADDSD 0(R10), X0, X0
	ADDQ   $8, R10

relu1:
	TESTQ  R11, R11
	JZ     store1
	VMAXSD X0, X15, X0

store1:
	VMOVSD X0, 0(DI)
	ADDQ   $8, DI
	ADDQ   $8, BX
	DECQ   CX
	JMP    tile1

done:
	VZEROUPPER
	RET

// One row of an outer-product update: tmp = a[k] (broadcast in Y8) *
// four columns of d (reg), rounded; dst row k += tmp, rounded, stored.
#define OUTER(reg, off, tmp) \
	VMULPD  reg, Y8, tmp;      \
	VADDPD  off(R14), tmp, tmp; \
	VMOVUPD tmp, off(R14)

// Load the next gathered k: broadcast a[k] into Y8 and leave R14 at the
// current column tile of dst's row k.
#define NEXTROW \
	MOVQ         (R8)(R13*8), R14; \
	VBROADCASTSD (SI)(R14*8), Y8;  \
	IMULQ        R12, R14;         \
	ADDQ         DI, R14

// func addOuterRowsAVX2(dst, a, d []float64, ks []int)
//
// For every k in ks and every j < len(d), with n = len(d):
//
//	dst[k*n+j] += a[k] * d[j]
//
// the product rounded before the add. The mirror image of axpyRowsAVX2:
// there the destination row stays in registers across ks, here the
// source row d does (32, 16 or 4 columns, then single ones) and each k
// reads, adds to and writes one row of dst. A k adds one term to each of
// its row's elements, so the order within a call is immaterial; the
// order across calls is the caller's.
//
// DI dst (advancing with the tile), SI a, BX d (advancing), R8 ks,
// R9 len(ks), CX columns left, R12 row stride of dst in bytes, R13 index
// into ks, R14 scratch.
TEXT ·addOuterRowsAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ d_base+48(FP), BX
	MOVQ d_len+56(FP), CX
	MOVQ ks_base+72(FP), R8
	MOVQ ks_len+80(FP), R9
	MOVQ CX, R12
	SHLQ $3, R12

outer32:
	CMPQ    CX, $32
	JLT     outer16
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	VMOVUPD 128(BX), Y4
	VMOVUPD 160(BX), Y5
	VMOVUPD 192(BX), Y6
	VMOVUPD 224(BX), Y7
	XORQ    R13, R13
	JMP     ocond32

oloop32:
	NEXTROW
	OUTER(Y0, 0, Y9)
	OUTER(Y1, 32, Y10)
	OUTER(Y2, 64, Y11)
	OUTER(Y3, 96, Y12)
	OUTER(Y4, 128, Y13)
	OUTER(Y5, 160, Y14)
	OUTER(Y6, 192, Y9)
	OUTER(Y7, 224, Y10)
	INCQ R13

ocond32:
	CMPQ R13, R9
	JLT  oloop32
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, CX
	JMP  outer32

outer16:
	CMPQ    CX, $16
	JLT     outer4
	VMOVUPD 0(BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD 64(BX), Y2
	VMOVUPD 96(BX), Y3
	XORQ    R13, R13
	JMP     ocond16

oloop16:
	NEXTROW
	OUTER(Y0, 0, Y9)
	OUTER(Y1, 32, Y10)
	OUTER(Y2, 64, Y11)
	OUTER(Y3, 96, Y12)
	INCQ R13

ocond16:
	CMPQ R13, R9
	JLT  oloop16
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $16, CX

outer4:
	CMPQ    CX, $4
	JLT     outer1
	VMOVUPD 0(BX), Y0
	XORQ    R13, R13
	JMP     ocond4

oloop4:
	NEXTROW
	OUTER(Y0, 0, Y9)
	INCQ R13

ocond4:
	CMPQ R13, R9
	JLT  oloop4
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  outer4

	// The n mod 4 tail, one column at a time with the scalar forms of the
	// same two instructions.
outer1:
	TESTQ  CX, CX
	JZ     outerdone
	VMOVSD 0(BX), X0
	XORQ   R13, R13
	JMP    ocond1

oloop1:
	NEXTROW
	VMULSD X0, X8, X9
	VADDSD (R14), X9, X9
	VMOVSD X9, (R14)
	INCQ   R13

ocond1:
	CMPQ R13, R9
	JLT  oloop1
	ADDQ $8, DI
	ADDQ $8, BX
	DECQ CX
	JMP  outer1

outerdone:
	VZEROUPPER
	RET

// func adamStepAVX2(val, g, m, v []float64, k *adamConsts)
//
// For every i < len(val) &^ 3, four at a time, with the scalars of k
// broadcast:
//
//	gi := g[i] * inv
//	m[i] = b1*m[i] + nb1*gi
//	v[i] = b2*v[i] + (nb2*gi)*gi
//	val[i] -= (lr * (m[i]/c1)) / (sqrt(v[i]/c2) + eps)
//
// every operation correctly rounded on its own, in that order, as
// Adam.Step's Go loop does it. The divides stay divides: a multiply by
// a reciprocal rounds twice and gives other bits, and the approximate
// reciprocal and reciprocal-square-root instructions are further off
// still. Lane i is element i; nothing crosses lanes.
//
// DI val, SI g, DX m, BX v (all advancing), CX groups of four left;
// Y7 eps, Y8 inv, Y9 b1, Y10 nb1, Y11 b2, Y12 nb2, Y13 c1, Y14 c2,
// Y15 lr.
TEXT ·adamStepAVX2(SB), NOSPLIT, $0-104
	MOVQ         val_base+0(FP), DI
	MOVQ         val_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), DX
	MOVQ         v_base+72(FP), BX
	MOVQ         k+96(FP), AX
	SHRQ         $2, CX
	VBROADCASTSD adamConsts_eps(AX), Y7
	VBROADCASTSD adamConsts_inv(AX), Y8
	VBROADCASTSD adamConsts_b1(AX), Y9
	VBROADCASTSD adamConsts_nb1(AX), Y10
	VBROADCASTSD adamConsts_b2(AX), Y11
	VBROADCASTSD adamConsts_nb2(AX), Y12
	VBROADCASTSD adamConsts_c1(AX), Y13
	VBROADCASTSD adamConsts_c2(AX), Y14
	VBROADCASTSD adamConsts_lr(AX), Y15

adam4:
	TESTQ   CX, CX
	JZ      adamdone
	VMULPD  (SI), Y8, Y0  // gi
	VMULPD  (DX), Y9, Y1  // b1*m
	VMULPD  Y0, Y10, Y2   // nb1*gi
	VADDPD  Y2, Y1, Y1    // m
	VMOVUPD Y1, (DX)
	VMULPD  (BX), Y11, Y3 // b2*v
	VMULPD  Y0, Y12, Y4   // nb2*gi
	VMULPD  Y0, Y4, Y4    // (nb2*gi)*gi
	VADDPD  Y4, Y3, Y3    // v
	VMOVUPD Y3, (BX)
	VDIVPD  Y13, Y1, Y1   // m/c1
	VMULPD  Y1, Y15, Y1   // lr*(m/c1)
	VDIVPD  Y14, Y3, Y3   // v/c2
	VSQRTPD Y3, Y3
	VADDPD  Y7, Y3, Y3    // sqrt(v/c2)+eps
	VDIVPD  Y3, Y1, Y1    // the step
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, BX
	DECQ    CX
	JMP     adam4

adamdone:
	VZEROUPPER
	RET
