//go:build amd64

#include "textflag.h"

// AVX2 DCE comparison kernel. Register conventions: SI/DI hold the "o"
// side (o1/o2), R8/R9 the "p" side (p3/p4), R10 the trapdoor q, CX the
// element index, DX the element count, BX = DX-8 the vector-loop bound. Y0/Y1 are the lane 0..3 / 4..7
// accumulators. Per-lane op order matches the scalar reference exactly:
// (o1·p3), (o2·p4), subtract, (·q), accumulate — no FMA.
//
// Note Go assembler operand order: "VSUBPD A, B, C" computes C = B - A.

// DC8 accumulates one 4-lane group of (o1·p3 − o2·p4)·q at byte offset off,
// clobbering Y2..Y6.
#define DC8(off, acc) \
	VMOVUPD off(SI)(CX*8), Y2  \
	VMOVUPD off(R8)(CX*8), Y3  \
	VMULPD  Y3, Y2, Y2         \
	VMOVUPD off(DI)(CX*8), Y4  \
	VMOVUPD off(R9)(CX*8), Y5  \
	VMULPD  Y5, Y4, Y4         \
	VSUBPD  Y4, Y2, Y2         \
	VMOVUPD off(R10)(CX*8), Y6 \
	VMULPD  Y6, Y2, Y2         \
	VADDPD  Y2, acc, acc

// DCTAILSTEP folds element CX of (o1·p3 − o2·p4)·q into lane 0 (X0),
// clobbering X6..X9.
#define DCTAILSTEP \
	VMOVSD (SI)(CX*8), X6  \
	VMOVSD (R8)(CX*8), X7  \
	VMULSD X7, X6, X6      \
	VMOVSD (DI)(CX*8), X8  \
	VMOVSD (R9)(CX*8), X9  \
	VMULSD X9, X8, X8      \
	VSUBSD X8, X6, X6      \
	VMOVSD (R10)(CX*8), X7 \
	VMULSD X7, X6, X6      \
	VADDSD X6, X0, X0

// REDUCE8 runs the reduce8 tree assuming X0=[s0,s1] (tail folded),
// X1=[s4,s5], X2=[s2,s3], X3=[s6,s7]; result lands in X0 lane 0.
#define REDUCE8 \
	VADDPD    X1, X0, X0 \
	VADDPD    X3, X2, X2 \
	VADDPD    X2, X0, X0 \
	VUNPCKHPD X0, X0, X1 \
	VADDSD    X1, X0, X0

// func distCompPairAVX2(o1, o2, p3, p4, q []float64) float64
TEXT ·distCompPairAVX2(SB), NOSPLIT, $0-128
	MOVQ   o1_base+0(FP), SI
	MOVQ   o2_base+24(FP), DI
	MOVQ   p3_base+48(FP), R8
	MOVQ   p4_base+72(FP), R9
	MOVQ   q_base+96(FP), R10
	MOVQ   q_len+104(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   CX, CX
	MOVQ   DX, BX
	SUBQ   $8, BX

dcloop:
	CMPQ CX, BX
	JG   dctail
	DC8(0, Y0)
	DC8(32, Y1)
	ADDQ $8, CX
	JMP  dcloop

dctail:
	VEXTRACTF128 $1, Y0, X2
	VEXTRACTF128 $1, Y1, X3

dctailloop:
	CMPQ CX, DX
	JGE  dcreduce
	DCTAILSTEP
	INCQ CX
	JMP  dctailloop

dcreduce:
	REDUCE8
	VMOVSD     X0, ret+120(FP)
	VZEROUPPER
	RET
