//go:build amd64

#include "textflag.h"

// Squared-distance kernels: the AVX2 pair and block bodies, and the
// AVX-512 block body further down. The AVX2 bodies replicate the scalar
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

// func sqDistBlockAVX512(dst, data []float64, stride, dim int, q []float64, ids []int32)
//
// The block kernel with four rows in flight, for a dim that is a multiple
// of 8. Each row's eight lanes sit in one ZMM accumulator, lane i mod 8 as
// in the reference, so every row is one add chain and the four chains run
// side by side; each 8-element chunk of q is loaded once for the four
// rows. The reduction is reduce8 on the ZMM: the upper four lanes onto
// the lower (t_i = s_i + s_{i+4}), then the 128-bit halves, then the
// unpack and add. The last rows (fewer than four) run one at a time the
// same way. No FMA, as in the AVX2 bodies.
//
// Registers: R14 dst, R15 data, R11 the stride in bytes, DX dim, SI q,
// R12 ids, R13 the id count, R10 j, DI/R8/R9/BX the four row bases, CX the
// element index; Z0..Z3 the accumulators, Z4 the q chunk, Z5..Z8 scratch.

// SQ8Z adds chunk CX of the row at base to acc: acc += (q−row)², using tmp.
#define SQ8Z(base, acc, tmp) \
	VSUBPD (base)(CX*8), Z4, tmp \
	VMULPD tmp, tmp, tmp         \
	VADDPD tmp, acc, acc

// REDUCE8Z runs the reduce8 tree on the accumulator whose Z, Y and X names
// are z, y and x, leaving the sum in x's lane 0; ty and tx (one register)
// are scratch.
#define REDUCE8Z(z, y, x, ty, tx) \
	VEXTRACTF64X4 $1, z, ty \
	VADDPD        ty, y, y  \
	VEXTRACTF128  $1, y, tx \
	VADDPD        tx, x, x  \
	VUNPCKHPD     x, x, tx  \
	VADDSD        tx, x, x

// ROWBASE loads the row base of ids[R10+k] into reg.
#define ROWBASE(k, reg) \
	MOVLQSX (4*k)(R12)(R10*4), reg \
	IMULQ   R11, reg               \
	ADDQ    R15, reg

TEXT ·sqDistBlockAVX512(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), R14
	MOVQ data_base+24(FP), R15
	MOVQ stride+48(FP), R11
	SHLQ $3, R11
	MOVQ dim+56(FP), DX
	MOVQ q_base+64(FP), SI
	MOVQ ids_base+88(FP), R12
	MOVQ ids_len+96(FP), R13
	XORQ R10, R10

rows4:
	LEAQ   4(R10), AX
	CMPQ   AX, R13
	JG     rows1
	ROWBASE(0, DI)
	ROWBASE(1, R8)
	ROWBASE(2, R9)
	ROWBASE(3, BX)
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	XORQ   CX, CX
	JMP    chunk4cond

chunk4:
	VMOVUPD (SI)(CX*8), Z4
	SQ8Z(DI, Z0, Z5)
	SQ8Z(R8, Z1, Z6)
	SQ8Z(R9, Z2, Z7)
	SQ8Z(BX, Z3, Z8)
	ADDQ    $8, CX

chunk4cond:
	CMPQ CX, DX
	JL   chunk4
	REDUCE8Z(Z0, Y0, X0, Y5, X5)
	REDUCE8Z(Z1, Y1, X1, Y6, X6)
	REDUCE8Z(Z2, Y2, X2, Y7, X7)
	REDUCE8Z(Z3, Y3, X3, Y8, X8)
	VMOVSD X0, (R14)(R10*8)
	VMOVSD X1, 8(R14)(R10*8)
	VMOVSD X2, 16(R14)(R10*8)
	VMOVSD X3, 24(R14)(R10*8)
	MOVQ   AX, R10
	JMP    rows4

rows1:
	CMPQ   R10, R13
	JGE    rowsdone
	ROWBASE(0, DI)
	VXORPD Z0, Z0, Z0
	XORQ   CX, CX
	JMP    chunk1cond

chunk1:
	VMOVUPD (SI)(CX*8), Z4
	SQ8Z(DI, Z0, Z5)
	ADDQ    $8, CX

chunk1cond:
	CMPQ CX, DX
	JL   chunk1
	REDUCE8Z(Z0, Y0, X0, Y5, X5)
	VMOVSD X0, (R14)(R10*8)
	INCQ   R10
	JMP    rows1

rowsdone:
	VZEROUPPER
	RET
