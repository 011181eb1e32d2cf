package dce

import "ppanns/internal/simd"

// The DCE comparison kernel, Σᵢ (o1ᵢ·p3ᵢ − o2ᵢ·p4ᵢ)·qᵢ — the paper's
// DistanceComp inner product. As in internal/vec, the AVX2 body in
// kernels_amd64.s MUST evaluate element-for-element in the same order as
// the scalar reference below — eight independent accumulator lanes, a
// sequential remainder folded into lane 0, the reduce8 tree — so the
// variant never flips the sign of a comparison: results are
// bit-identical, not merely close. (A sign flip on a near-tie would change
// refine rankings between machines, which the conformance suite forbids.)

// ActiveKernel returns the name of the body the comparison kernel runs:
// avx2 (distCompPairAVX2) wherever simd.UseAVX2 holds, scalar elsewhere.
// This package has no 512-bit body, so under simd's avx512 variant it runs,
// and names, its AVX2 body.
func ActiveKernel() string {
	if simd.UseAVX2() {
		return simd.AVX2
	}
	return simd.Scalar
}

// reduce8 is the fixed eight-lane combination tree shared with
// internal/vec (see the comment there); keep it in lockstep with the
// assembly reductions.
func reduce8(s0, s1, s2, s3, s4, s5, s6, s7 float64) float64 {
	t0 := s0 + s4
	t1 := s1 + s5
	t2 := s2 + s6
	t3 := s3 + s7
	return (t0 + t2) + (t1 + t3)
}

// distCompTail is the single scalar remainder of every DistanceComp path:
// elements i..n-1 fold sequentially into lane 0. The AVX2 assembly
// reproduces exactly this loop, so variants cannot drift on odd ctDims.
func distCompTail(z0 float64, o1, o2, p3, p4, q []float64, i int) float64 {
	for ; i < len(q); i++ {
		z0 += float64((float64(o1[i]*p3[i]) - float64(o2[i]*p4[i])) * q[i])
	}
	return z0
}

// distCompScalar is the reference DistanceComp kernel: eight-wide unrolling
// with independent accumulators so the multiply/add chains pipeline (and so
// the lane structure matches a two-register AVX2 loop bit-for-bit).
func distCompScalar(o1, o2, p3, p4, q []float64) float64 {
	n := len(q)
	o1 = o1[:n]
	o2 = o2[:n]
	p3 = p3[:n]
	p4 = p4[:n]
	var z0, z1, z2, z3, z4, z5, z6, z7 float64
	i := 0
	for ; i+8 <= n; i += 8 {
		z0 += float64((float64(o1[i]*p3[i]) - float64(o2[i]*p4[i])) * q[i])
		z1 += float64((float64(o1[i+1]*p3[i+1]) - float64(o2[i+1]*p4[i+1])) * q[i+1])
		z2 += float64((float64(o1[i+2]*p3[i+2]) - float64(o2[i+2]*p4[i+2])) * q[i+2])
		z3 += float64((float64(o1[i+3]*p3[i+3]) - float64(o2[i+3]*p4[i+3])) * q[i+3])
		z4 += float64((float64(o1[i+4]*p3[i+4]) - float64(o2[i+4]*p4[i+4])) * q[i+4])
		z5 += float64((float64(o1[i+5]*p3[i+5]) - float64(o2[i+5]*p4[i+5])) * q[i+5])
		z6 += float64((float64(o1[i+6]*p3[i+6]) - float64(o2[i+6]*p4[i+6])) * q[i+6])
		z7 += float64((float64(o1[i+7]*p3[i+7]) - float64(o2[i+7]*p4[i+7])) * q[i+7])
	}
	z0 = distCompTail(z0, o1, o2, p3, p4, q, i)
	return reduce8(z0, z1, z2, z3, z4, z5, z6, z7)
}
