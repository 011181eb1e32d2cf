//go:build amd64

#include "textflag.h"

// AVX2 squared-distance kernels. Both functions replicate the scalar
// reference in kernels.go exactly:
//
//   - the vector loop consumes 8 elements per iteration into two YMM
//     accumulators (Y0 = lanes 0..3, Y1 = lanes 4..7);
//   - the remainder folds sequentially into lane 0 of Y0's low half with
//     scalar VEX ops (VADDSD preserves the neighbouring lane-1 bits);
//   - the reduction is the reduce8 tree: acc0+acc1 lane-wise, then the
//     128-bit halves, then the final unpack+add.
//
// No FMA anywhere: VSUBPD/VMULPD/VADDPD round each step exactly like the
// scalar code, which is what makes the variants bit-identical.
//
// Note Go assembler operand order: "VSUBPD A, B, C" computes C = B - A.

// SQ8 accumulates one 4-lane group at byte offset off from the element
// index CX*8: acc += (a-b)*(a-b), clobbering Y2/Y3.
#define SQ8(off, abase, bbase, acc) \
	VMOVUPD off(abase)(CX*8), Y2 \
	VMOVUPD off(bbase)(CX*8), Y3 \
	VSUBPD  Y3, Y2, Y2           \
	VMULPD  Y2, Y2, Y2           \
	VADDPD  Y2, acc, acc

// SQTAILSTEP folds element CX into lane 0 (X0), clobbering X6/X7.
#define SQTAILSTEP(abase, bbase) \
	VMOVSD (abase)(CX*8), X6 \
	VMOVSD (bbase)(CX*8), X7 \
	VSUBSD X7, X6, X6        \
	VMULSD X6, X6, X6        \
	VADDSD X6, X0, X0

// SQREDUCE8 runs the reduce8 tree assuming X0=[s0,s1] (tail already
// folded), X1=[s4,s5], X2=[s2,s3], X3=[s6,s7]; the steps produce [t0,t1],
// [t2,t3], [t0+t2,t1+t3] and finally (t0+t2)+(t1+t3) in X0 lane 0.
#define SQREDUCE8 \
	VADDPD    X1, X0, X0 \
	VADDPD    X3, X2, X2 \
	VADDPD    X2, X0, X0 \
	VUNPCKHPD X0, X0, X1 \
	VADDSD    X1, X0, X0

// func sqDistPairAVX2(a, b []float64) float64
TEXT ·sqDistPairAVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), DX
	MOVQ   b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   CX, CX
	MOVQ   DX, BX
	SUBQ   $8, BX

pairloop:
	CMPQ CX, BX
	JG   pairtail
	SQ8(0, SI, DI, Y0)
	SQ8(32, SI, DI, Y1)
	ADDQ $8, CX
	JMP  pairloop

pairtail:
	VEXTRACTF128 $1, Y0, X2
	VEXTRACTF128 $1, Y1, X3

pairtailloop:
	CMPQ CX, DX
	JGE  pairreduce
	SQTAILSTEP(SI, DI)
	INCQ CX
	JMP  pairtailloop

pairreduce:
	SQREDUCE8
	VMOVSD     X0, ret+48(FP)
	VZEROUPPER
	RET

// func sqDistBlockAVX2(dst, data []float64, stride, dim int, q []float64, ids []int32)
TEXT ·sqDistBlockAVX2(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), R14
	MOVQ data_base+24(FP), R15
	MOVQ stride+48(FP), R11
	SHLQ $3, R11                 // stride in bytes
	MOVQ dim+56(FP), DX
	MOVQ q_base+64(FP), SI
	MOVQ ids_base+88(FP), R12
	MOVQ ids_len+96(FP), R13
	MOVQ DX, BX
	SUBQ $8, BX
	XORQ R10, R10                // j

blockrows:
	CMPQ    R10, R13
	JGE     blockdone
	MOVLQSX (R12)(R10*4), DI     // id (int32, sign-extended)
	IMULQ   R11, DI
	ADDQ    R15, DI              // row base
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	XORQ    CX, CX

blockloop:
	CMPQ CX, BX
	JG   blocktail
	SQ8(0, SI, DI, Y0)
	SQ8(32, SI, DI, Y1)
	ADDQ $8, CX
	JMP  blockloop

blocktail:
	VEXTRACTF128 $1, Y0, X2
	VEXTRACTF128 $1, Y1, X3

blocktailloop:
	CMPQ CX, DX
	JGE  blockreduce
	SQTAILSTEP(SI, DI)
	INCQ CX
	JMP  blocktailloop

blockreduce:
	SQREDUCE8
	VMOVSD X0, (R14)(R10*8)
	INCQ   R10
	JMP    blockrows

blockdone:
	VZEROUPPER
	RET

// func addAVX2(dst, a, b []float64)
//
// dst[i] = a[i] + b[i] for the len(a) elements, a multiple of four: eight
// per step in two YMM registers, then one step of four. Each lane is one
// correctly rounded VADDPD, the Go loop's bits. Every step loads a and b
// before it stores, so dst may be a or b itself.
TEXT ·addAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), DX
	MOVQ b_base+48(FP), R8
	XORQ CX, CX

add8:
	LEAQ    8(CX), AX
	CMPQ    AX, DX
	JG      add4
	VMOVUPD (SI)(CX*8), Y0
	VMOVUPD 32(SI)(CX*8), Y1
	VADDPD  (R8)(CX*8), Y0, Y0
	VADDPD  32(R8)(CX*8), Y1, Y1
	VMOVUPD Y0, (DI)(CX*8)
	VMOVUPD Y1, 32(DI)(CX*8)
	MOVQ    AX, CX
	JMP     add8

add4:
	CMPQ    CX, DX
	JGE     adddone
	VMOVUPD (SI)(CX*8), Y0
	VADDPD  (R8)(CX*8), Y0, Y0
	VMOVUPD Y0, (DI)(CX*8)

adddone:
	VZEROUPPER
	RET
