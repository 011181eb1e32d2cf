//go:build amd64

#include "textflag.h"

// The block kernel's (block.go) vector bodies: nearestBlockAVX2 here and
// nearestBlockAVX512 below, the only 512-bit body outside the matrix panel
// kernel. Both keep one 64-bit lane per point and compute every lane as
// the reference does, so they differ only in how many points a group
// holds.
//
// AVX2 body: eight points at a time in two YMM register sets, then a last
// group of four. For every centroid, in index order, each lane computes the
// reference's sequential distance — t = q₀−c₀, d = t·t, then d += t·t per
// further coordinate, VMULPD then VADDPD, no FMA — and keeps (d, index)
// when d < best. VMINPD d, best returns d only when d < best (on equal
// values and on a NaN it returns its second operand, best), which is that
// rule exactly; the index follows the same comparison through VBLENDVPD.
// Lanes never combine, so every lane's bits are the reference's.
//
// The branches on w after each coordinate are the reference's: w is fixed
// for the call, so they predict perfectly.
//
// Go assembler operand order: "VSUBPD A, B, C" computes C = B − A.
//
// Registers: DI best, SI idx, R8/R14/R15 coordinates 0/3/6 of the group's
// points, R9 the stride in bytes, R10 w, R12 w·8, R11 the first centroid,
// R13 the end of the centroids, CX the current centroid, DX the points
// left. Y0/Y1 best, Y2/Y3 idx, Y4 the current centroid's index, Y5 all
// ones (−1 per lane: VPSUBQ Y5 increments), Y7 base, Y6 the broadcast
// centroid coordinate, Y8/Y9 t, Y10/Y11 d, Y12/Y13 the comparison masks.

// STEP8 adds coordinate j's squared difference to both distance sets: coff
// is j·8 into the centroid, a0 and a1 the two four-point halves of the
// coordinate's row.
#define STEP8(coff, a0, a1) \
	VBROADCASTSD coff(CX), Y6  \
	VMOVUPD      a0, Y8        \
	VMOVUPD      a1, Y9        \
	VSUBPD       Y6, Y8, Y8    \
	VSUBPD       Y6, Y9, Y9    \
	VMULPD       Y8, Y8, Y8    \
	VMULPD       Y9, Y9, Y9    \
	VADDPD       Y8, Y10, Y10  \
	VADDPD       Y9, Y11, Y11

// STEP4 is STEP8 for one set of four points.
#define STEP4(coff, a0) \
	VBROADCASTSD coff(CX), Y6  \
	VMOVUPD      a0, Y8        \
	VSUBPD       Y6, Y8, Y8    \
	VMULPD       Y8, Y8, Y8    \
	VADDPD       Y8, Y10, Y10

// func nearestBlockAVX2(best []float64, idx []int, pts []float64, stride, w int, cents []float64, base int)
TEXT ·nearestBlockAVX2(SB), NOSPLIT, $0-120
	MOVQ         best_base+0(FP), DI
	MOVQ         best_len+8(FP), DX
	MOVQ         idx_base+24(FP), SI
	MOVQ         pts_base+48(FP), R8
	MOVQ         stride+72(FP), R9
	SHLQ         $3, R9
	MOVQ         w+80(FP), R10
	MOVQ         R10, R12
	SHLQ         $3, R12
	MOVQ         cents_base+88(FP), R11
	MOVQ         cents_len+96(FP), R13
	LEAQ         (R11)(R13*8), R13
	LEAQ         (R8)(R9*2), R14
	ADDQ         R9, R14
	LEAQ         (R14)(R9*2), R15
	ADDQ         R9, R15
	VPBROADCASTQ base+112(FP), Y7
	VPCMPEQQ     Y5, Y5, Y5

group8:
	CMPQ    DX, $8
	JB      group4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVDQU (SI), Y2
	VMOVDQU 32(SI), Y3
	VMOVDQA Y7, Y4
	MOVQ    R11, CX

cent8:
	VBROADCASTSD (CX), Y6
	VMOVUPD      (R8), Y10
	VMOVUPD      32(R8), Y11
	VSUBPD       Y6, Y10, Y10
	VSUBPD       Y6, Y11, Y11
	VMULPD       Y10, Y10, Y10
	VMULPD       Y11, Y11, Y11
	CMPQ         R10, $2
	JB           pick8
	STEP8(8, (R8)(R9*1), 32(R8)(R9*1))
	CMPQ         R10, $3
	JB           pick8
	STEP8(16, (R8)(R9*2), 32(R8)(R9*2))
	CMPQ         R10, $4
	JB           pick8
	STEP8(24, (R14), 32(R14))
	CMPQ         R10, $5
	JB           pick8
	STEP8(32, (R14)(R9*1), 32(R14)(R9*1))
	CMPQ         R10, $6
	JB           pick8
	STEP8(40, (R14)(R9*2), 32(R14)(R9*2))
	CMPQ         R10, $7
	JB           pick8
	STEP8(48, (R15), 32(R15))

pick8:
	VCMPPD    $0x11, Y0, Y10, Y12 // d < best, ordered: NaN is false
	VCMPPD    $0x11, Y1, Y11, Y13
	VMINPD    Y0, Y10, Y0
	VMINPD    Y1, Y11, Y1
	VBLENDVPD Y12, Y4, Y2, Y2
	VBLENDVPD Y13, Y4, Y3, Y3
	VPSUBQ    Y5, Y4, Y4
	ADDQ      R12, CX
	CMPQ      CX, R13
	JB        cent8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVDQU Y2, (SI)
	VMOVDQU Y3, 32(SI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, R8
	ADDQ    $64, R14
	ADDQ    $64, R15
	SUBQ    $8, DX
	JMP     group8

group4:
	CMPQ    DX, $4
	JB      done
	VMOVUPD (DI), Y0
	VMOVDQU (SI), Y2
	VMOVDQA Y7, Y4
	MOVQ    R11, CX

cent4:
	VBROADCASTSD (CX), Y6
	VMOVUPD      (R8), Y10
	VSUBPD       Y6, Y10, Y10
	VMULPD       Y10, Y10, Y10
	CMPQ         R10, $2
	JB           pick4
	STEP4(8, (R8)(R9*1))
	CMPQ         R10, $3
	JB           pick4
	STEP4(16, (R8)(R9*2))
	CMPQ         R10, $4
	JB           pick4
	STEP4(24, (R14))
	CMPQ         R10, $5
	JB           pick4
	STEP4(32, (R14)(R9*1))
	CMPQ         R10, $6
	JB           pick4
	STEP4(40, (R14)(R9*2))
	CMPQ         R10, $7
	JB           pick4
	STEP4(48, (R15))

pick4:
	VCMPPD    $0x11, Y0, Y10, Y12
	VMINPD    Y0, Y10, Y0
	VBLENDVPD Y12, Y4, Y2, Y2
	VPSUBQ    Y5, Y4, Y4
	ADDQ      R12, CX
	CMPQ      CX, R13
	JB        cent4

	VMOVUPD Y0, (DI)
	VMOVDQU Y2, (SI)

done:
	VZEROUPPER
	RET

// 512-bit body of the block kernel: sixteen points per group in two ZMM
// register sets, the same per-lane arithmetic as the AVX2 body — t = q−c,
// d = t·t, d += t·t per further coordinate, VSUBPD, VMULPD then VADDPD, no
// FMA — so every lane's bits are the reference's. The group's coordinates
// stay in registers (coordinate j in Z16+2j and Z17+2j) while the
// centroids pass; each centroid coordinate is broadcast once. VCMPPD
// $0x11 (LT_OQ) writes d < best into K1/K2, VMINPD keeps the distance by
// the same rule (d only when d < best: on ties and NaN it returns best),
// and a VMOVDQA64 merge-masked by K1/K2 keeps the index. The points left
// over (fewer than sixteen) are the caller's: nearestBlockVector512 hands
// them to the AVX2 body and the reference.
//
// Registers: DI best, SI idx, R8/R14/R15 coordinates 0/3/6 of the group's
// points, R9 the stride in bytes, R10 w, R12 w·8, R11 the first centroid,
// R13 the end of the centroids, CX the current centroid, DX the points
// left. Z0/Z1 best, Z2/Z3 idx, Z4 the current centroid's index, Z5 one
// per lane, Z7 base, Z6 the broadcast centroid coordinate, Z8/Z9 t,
// Z10/Z11 d, Z16..Z29 the group's coordinates, K1/K2 the comparisons.

// STEP16 adds coordinate j's squared difference to both distance sets:
// coff is j·8 into the centroid, q0 and q1 the two eight-point halves of
// the coordinate.
#define STEP16(coff, q0, q1) \
	VBROADCASTSD coff(CX), Z6  \
	VSUBPD       Z6, q0, Z8    \
	VSUBPD       Z6, q1, Z9    \
	VMULPD       Z8, Z8, Z8    \
	VMULPD       Z9, Z9, Z9    \
	VADDPD       Z8, Z10, Z10  \
	VADDPD       Z9, Z11, Z11

// func nearestBlockAVX512(best []float64, idx []int, pts []float64, stride, w int, cents []float64, base int)
TEXT ·nearestBlockAVX512(SB), NOSPLIT, $0-120
	MOVQ         best_base+0(FP), DI
	MOVQ         best_len+8(FP), DX
	MOVQ         idx_base+24(FP), SI
	MOVQ         pts_base+48(FP), R8
	MOVQ         stride+72(FP), R9
	SHLQ         $3, R9
	MOVQ         w+80(FP), R10
	MOVQ         R10, R12
	SHLQ         $3, R12
	MOVQ         cents_base+88(FP), R11
	MOVQ         cents_len+96(FP), R13
	LEAQ         (R11)(R13*8), R13
	LEAQ         (R8)(R9*2), R14
	ADDQ         R9, R14
	LEAQ         (R14)(R9*2), R15
	ADDQ         R9, R15
	VPBROADCASTQ base+112(FP), Z7
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z5

group16:
	CMPQ      DX, $16
	JB        done16
	VMOVUPD   (DI), Z0
	VMOVUPD   64(DI), Z1
	VMOVDQU64 (SI), Z2
	VMOVDQU64 64(SI), Z3
	VMOVDQA64 Z7, Z4
	MOVQ      R11, CX

	// Load the group's w coordinates.
	VMOVUPD (R8), Z16
	VMOVUPD 64(R8), Z17
	CMPQ    R10, $2
	JB      cent16
	VMOVUPD (R8)(R9*1), Z18
	VMOVUPD 64(R8)(R9*1), Z19
	CMPQ    R10, $3
	JB      cent16
	VMOVUPD (R8)(R9*2), Z20
	VMOVUPD 64(R8)(R9*2), Z21
	CMPQ    R10, $4
	JB      cent16
	VMOVUPD (R14), Z22
	VMOVUPD 64(R14), Z23
	CMPQ    R10, $5
	JB      cent16
	VMOVUPD (R14)(R9*1), Z24
	VMOVUPD 64(R14)(R9*1), Z25
	CMPQ    R10, $6
	JB      cent16
	VMOVUPD (R14)(R9*2), Z26
	VMOVUPD 64(R14)(R9*2), Z27
	CMPQ    R10, $7
	JB      cent16
	VMOVUPD (R15), Z28
	VMOVUPD 64(R15), Z29

cent16:
	VBROADCASTSD (CX), Z6
	VSUBPD       Z6, Z16, Z10
	VSUBPD       Z6, Z17, Z11
	VMULPD       Z10, Z10, Z10
	VMULPD       Z11, Z11, Z11
	CMPQ         R10, $2
	JB           pick16
	STEP16(8, Z18, Z19)
	CMPQ         R10, $3
	JB           pick16
	STEP16(16, Z20, Z21)
	CMPQ         R10, $4
	JB           pick16
	STEP16(24, Z22, Z23)
	CMPQ         R10, $5
	JB           pick16
	STEP16(32, Z24, Z25)
	CMPQ         R10, $6
	JB           pick16
	STEP16(40, Z26, Z27)
	CMPQ         R10, $7
	JB           pick16
	STEP16(48, Z28, Z29)

pick16:
	VCMPPD    $0x11, Z0, Z10, K1 // d < best, ordered: NaN is false
	VCMPPD    $0x11, Z1, Z11, K2
	VMINPD    Z0, Z10, Z0
	VMINPD    Z1, Z11, Z1
	VMOVDQA64 Z4, K1, Z2
	VMOVDQA64 Z4, K2, Z3
	VPADDQ    Z5, Z4, Z4
	ADDQ      R12, CX
	CMPQ      CX, R13
	JB        cent16

	VMOVUPD   Z0, (DI)
	VMOVUPD   Z1, 64(DI)
	VMOVDQU64 Z2, (SI)
	VMOVDQU64 Z3, 64(SI)
	ADDQ      $128, DI
	ADDQ      $128, SI
	ADDQ      $128, R8
	ADDQ      $128, R14
	ADDQ      $128, R15
	SUBQ      $16, DX
	JMP       group16

done16:
	VZEROUPPER
	RET
