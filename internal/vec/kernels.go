package vec

import "ppanns/internal/simd"

// The distance kernels. Each has a scalar reference here and an AVX2 body
// in kernels_amd64.s; the block kernel also has an AVX-512 body that keeps
// four rows in flight. The wrappers in kernels_amd64.go branch on
// simd.UseAVX512 and simd.UseAVX2 with direct calls. Every vector body MUST
// evaluate element-for-element in the same order as its reference: eight
// independent accumulator lanes (lane = i mod 8), a sequential remainder
// folded into lane 0, and the reduce8 combination tree. That makes the
// variants bit-identical — callers that freeze distances into graphs or
// compare results across machines never observe a variant-dependent float.

// ActiveKernel returns the name of the widest body the kernels run: avx512
// wherever simd.UseAVX512 holds, where the block kernel (every graph hop
// and list scan) runs sqDistBlockAVX512, its four-row body, at dimensions
// that are a multiple of 8; the pair kernel (sqDistPairAVX2), the PQ scan
// (pqScanBlockAVX2) and the block kernel at other dimensions
// (sqDistBlockAVX2) keep their AVX2 bodies. It is avx2 wherever only
// simd.UseAVX2 holds, and scalar elsewhere.
func ActiveKernel() string {
	switch {
	case simd.UseAVX512():
		return simd.AVX512
	case simd.UseAVX2():
		return simd.AVX2
	}
	return simd.Scalar
}

// reduce8 combines the eight accumulator lanes with the fixed association
// every variant reproduces: the two four-lane halves are added pairwise
// (t_i = s_i + s_{i+4}; AVX2's single VADDPD of its two accumulator
// registers), then folded (t0+t2)+(t1+t3) (the 128-bit extract/unpack
// ladder). Changing this order changes results by an ULP or two — keep the
// assembly and this function in lockstep.
func reduce8(s0, s1, s2, s3, s4, s5, s6, s7 float64) float64 {
	t0 := s0 + s4
	t1 := s1 + s5
	t2 := s2 + s6
	t3 := s3 + s7
	return (t0 + t2) + (t1 + t3)
}

// sqDistTail is the one scalar remainder loop shared by every squared-
// distance path (it used to be duplicated between SqDist and SqDistBlock):
// elements i..len(a)-1 fold sequentially into the lane-0 accumulator. The
// AVX2 assembly reproduces exactly this loop on its lane-0 scalar register,
// so variants cannot drift on odd dimensions.
func sqDistTail(s0 float64, a, b []float64, i int) float64 {
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += float64(d * d)
	}
	return s0
}

// sqDistScalar is the reference squared-distance kernel: eight-wide
// unrolling with independent accumulators so the floating-point add chains
// pipeline (and so the lane structure matches a two-register AVX2 loop
// bit-for-bit).
func sqDistScalar(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= n; i += 8 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		d4 := a[i+4] - b[i+4]
		d5 := a[i+5] - b[i+5]
		d6 := a[i+6] - b[i+6]
		d7 := a[i+7] - b[i+7]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
		s4 += float64(d4 * d4)
		s5 += float64(d5 * d5)
		s6 += float64(d6 * d6)
		s7 += float64(d7 * d7)
	}
	s0 = sqDistTail(s0, a, b, i)
	return reduce8(s0, s1, s2, s3, s4, s5, s6, s7)
}

// sqDistBlockScalar evaluates the block through the pair reference, so the
// scalar pair and block paths cannot diverge by construction.
func sqDistBlockScalar(dst, data []float64, stride, dim int, q []float64, ids []int32) {
	for j, id := range ids {
		row := data[int(id)*stride : int(id)*stride+dim]
		dst[j] = sqDistScalar(q, row)
	}
}
