//go:build amd64

#include "textflag.h"

// AVX2 bodies of the inner loops in kernels.go. Like the distance
// kernels in internal/vec they use no FMA: every product and every sum is
// rounded on its own (VMULPD then VADDPD), in the order the Go loops use,
// so the two are interchangeable bit for bit.
//
// Go assembler operand order: "VADDPD A, B, C" computes C = B + A.

// AXPYSTEP adds coef·row to the two destination registers Y0/Y1 for the
// eight elements at index CX, clobbering Y2/Y3.
#define AXPYSTEP(row, coef) \
	VMULPD (row)(CX*8), coef, Y2   \
	VMULPD 32(row)(CX*8), coef, Y3 \
	VADDPD Y2, Y0, Y0              \
	VADDPD Y3, Y1, Y1

// AXPYSTEP4 is AXPYSTEP on four elements (Y0 only).
#define AXPYSTEP4(row, coef) \
	VMULPD (row)(CX*8), coef, Y2 \
	VADDPD Y2, Y0, Y0

// AXPYSTEP1 is AXPYSTEP on one element (lane 0 of X0); coef's lane 0 holds
// the coefficient.
#define AXPYSTEP1(row, coef) \
	VMULSD (row)(CX*8), coef, X2 \
	VADDSD X2, X0, X0

// func axpy4AVX2(dst, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), DX
	MOVQ         r0_base+24(FP), R8
	MOVQ         r1_base+48(FP), R9
	MOVQ         r2_base+72(FP), R10
	MOVQ         r3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y4
	VBROADCASTSD a1+128(FP), Y5
	VBROADCASTSD a2+136(FP), Y6
	VBROADCASTSD a3+144(FP), Y7
	XORQ         CX, CX
	MOVQ         DX, BX
	SUBQ         $8, BX

axpy8:
	CMPQ    CX, BX
	JG      axpy4
	VMOVUPD (DI)(CX*8), Y0
	VMOVUPD 32(DI)(CX*8), Y1
	AXPYSTEP(R8, Y4)
	AXPYSTEP(R9, Y5)
	AXPYSTEP(R10, Y6)
	AXPYSTEP(R11, Y7)
	VMOVUPD Y0, (DI)(CX*8)
	VMOVUPD Y1, 32(DI)(CX*8)
	ADDQ    $8, CX
	JMP     axpy8

axpy4:
	ADDQ    $4, BX
	CMPQ    CX, BX
	JG      axpy1
	VMOVUPD (DI)(CX*8), Y0
	AXPYSTEP4(R8, Y4)
	AXPYSTEP4(R9, Y5)
	AXPYSTEP4(R10, Y6)
	AXPYSTEP4(R11, Y7)
	VMOVUPD Y0, (DI)(CX*8)
	ADDQ    $4, CX

axpy1:
	CMPQ   CX, DX
	JGE    axpydone
	VMOVSD (DI)(CX*8), X0
	AXPYSTEP1(R8, X4)
	AXPYSTEP1(R9, X5)
	AXPYSTEP1(R10, X6)
	AXPYSTEP1(R11, X7)
	VMOVSD X0, (DI)(CX*8)
	INCQ   CX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// PANEL8 adds the broadcast coefficient at coef times the source columns
// in Y8/Y9 to one destination's eight columns in lo/hi, clobbering Y10,
// Y12 and Y13.
#define PANEL8(coef, lo, hi) \
	VBROADCASTSD coef, Y10   \
	VMULPD       Y8, Y10, Y12 \
	VMULPD       Y9, Y10, Y13 \
	VADDPD       Y12, lo, lo  \
	VADDPD       Y13, hi, hi

// PANEL4 is PANEL8 on four columns (source in Y8).
#define PANEL4(coef, acc) \
	VBROADCASTSD coef, Y10   \
	VMULPD       Y8, Y10, Y12 \
	VADDPD       Y12, acc, acc

// PANEL1 is PANEL8 on one column (source in lane 0 of X8).
#define PANEL1(coef, acc) \
	VMULSD coef, X8, X12 \
	VADDSD X12, acc, acc

// func axpyPanel4AVX2(d0, d1, d2, d3, c []float64, cs, rows int, src []float64, stride int)
//
// For each group of columns the four destinations are loaded once and held
// in registers while the source rows pass under them in p order: eight
// columns in Y0..Y7 (two registers per destination), then four in Y0, Y2,
// Y4, Y6, then one at a time in X0, X2, X4, X6. Each source load serves the
// four destinations, each product and sum rounded on its own.
//
// DI, SI, R8, R9: the destinations; DX: their length; R10, R11: the first
// coefficient row and its end; R14, R15: cs and 3·cs in bytes, the offsets
// of the other three rows; R12: src; R13: the stride in bytes; CX: the
// column; AX, BX: the source row and the coefficient of the inner loop.
TEXT ·axpyPanel4AVX2(SB), NOSPLIT, $0-168
	MOVQ d0_base+0(FP), DI
	MOVQ d0_len+8(FP), DX
	MOVQ d1_base+24(FP), SI
	MOVQ d2_base+48(FP), R8
	MOVQ d3_base+72(FP), R9
	MOVQ c_base+96(FP), R10
	MOVQ cs+120(FP), R14
	MOVQ rows+128(FP), R11
	MOVQ src_base+136(FP), R12
	MOVQ stride+160(FP), R13
	LEAQ (R10)(R11*8), R11
	SHLQ $3, R14
	LEAQ (R14)(R14*2), R15
	SHLQ $3, R13
	XORQ CX, CX
	CMPQ R10, R11
	JEQ  paneldone

panel8:
	LEAQ    8(CX), AX
	CMPQ    AX, DX
	JG      panel4
	VMOVUPD (DI)(CX*8), Y0
	VMOVUPD 32(DI)(CX*8), Y1
	VMOVUPD (SI)(CX*8), Y2
	VMOVUPD 32(SI)(CX*8), Y3
	VMOVUPD (R8)(CX*8), Y4
	VMOVUPD 32(R8)(CX*8), Y5
	VMOVUPD (R9)(CX*8), Y6
	VMOVUPD 32(R9)(CX*8), Y7
	LEAQ    (R12)(CX*8), AX
	MOVQ    R10, BX

panel8row:
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	PANEL8((BX), Y0, Y1)
	PANEL8((BX)(R14*1), Y2, Y3)
	PANEL8((BX)(R14*2), Y4, Y5)
	PANEL8((BX)(R15*1), Y6, Y7)
	ADDQ    R13, AX
	ADDQ    $8, BX
	CMPQ    BX, R11
	JL      panel8row
	VMOVUPD Y0, (DI)(CX*8)
	VMOVUPD Y1, 32(DI)(CX*8)
	VMOVUPD Y2, (SI)(CX*8)
	VMOVUPD Y3, 32(SI)(CX*8)
	VMOVUPD Y4, (R8)(CX*8)
	VMOVUPD Y5, 32(R8)(CX*8)
	VMOVUPD Y6, (R9)(CX*8)
	VMOVUPD Y7, 32(R9)(CX*8)
	ADDQ    $8, CX
	JMP     panel8

panel4:
	LEAQ    4(CX), AX
	CMPQ    AX, DX
	JG      panel1
	VMOVUPD (DI)(CX*8), Y0
	VMOVUPD (SI)(CX*8), Y2
	VMOVUPD (R8)(CX*8), Y4
	VMOVUPD (R9)(CX*8), Y6
	LEAQ    (R12)(CX*8), AX
	MOVQ    R10, BX

panel4row:
	VMOVUPD (AX), Y8
	PANEL4((BX), Y0)
	PANEL4((BX)(R14*1), Y2)
	PANEL4((BX)(R14*2), Y4)
	PANEL4((BX)(R15*1), Y6)
	ADDQ    R13, AX
	ADDQ    $8, BX
	CMPQ    BX, R11
	JL      panel4row
	VMOVUPD Y0, (DI)(CX*8)
	VMOVUPD Y2, (SI)(CX*8)
	VMOVUPD Y4, (R8)(CX*8)
	VMOVUPD Y6, (R9)(CX*8)
	ADDQ    $4, CX

panel1:
	CMPQ   CX, DX
	JGE    paneldone
	VMOVSD (DI)(CX*8), X0
	VMOVSD (SI)(CX*8), X2
	VMOVSD (R8)(CX*8), X4
	VMOVSD (R9)(CX*8), X6
	LEAQ   (R12)(CX*8), AX
	MOVQ   R10, BX

panel1row:
	VMOVSD (AX), X8
	PANEL1((BX), X0)
	PANEL1((BX)(R14*1), X2)
	PANEL1((BX)(R14*2), X4)
	PANEL1((BX)(R15*1), X6)
	ADDQ   R13, AX
	ADDQ   $8, BX
	CMPQ   BX, R11
	JL     panel1row
	VMOVSD X0, (DI)(CX*8)
	VMOVSD X2, (SI)(CX*8)
	VMOVSD X4, (R8)(CX*8)
	VMOVSD X6, (R9)(CX*8)
	INCQ   CX
	JMP    panel1

paneldone:
	VZEROUPPER
	RET

// DOT8 accumulates one 4-lane group of products at byte offset off from
// the element index CX*8, clobbering Y2.
#define DOT8(off, acc) \
	VMOVUPD off(SI)(CX*8), Y2     \
	VMULPD  off(DI)(CX*8), Y2, Y2 \
	VADDPD  Y2, acc, acc

// func dot8AVX2(a, b []float64) float64
//
// Y0 carries lanes 0..3, Y1 lanes 4..7; the remainder folds into lane 0
// with scalar VEX ops; the reduction is ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)).
TEXT ·dot8AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), DX
	MOVQ   b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   CX, CX
	MOVQ   DX, BX
	SUBQ   $8, BX

dotloop:
	CMPQ CX, BX
	JG   dottail
	DOT8(0, Y0)
	DOT8(32, Y1)
	ADDQ $8, CX
	JMP  dotloop

dottail:
	VEXTRACTF128 $1, Y0, X2
	VEXTRACTF128 $1, Y1, X3

dottailloop:
	CMPQ   CX, DX
	JGE    dotreduce
	VMOVSD (SI)(CX*8), X6
	VMULSD (DI)(CX*8), X6, X6
	VADDSD X6, X0, X0
	INCQ   CX
	JMP    dottailloop

dotreduce:
	VADDPD     X1, X0, X0
	VADDPD     X3, X2, X2
	VADDPD     X2, X0, X0
	VUNPCKHPD  X0, X0, X1
	VADDSD     X1, X0, X0
	VMOVSD     X0, ret+48(FP)
	VZEROUPPER
	RET
