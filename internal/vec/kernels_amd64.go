//go:build amd64

package vec

import "ppanns/internal/simd"

// The assembly bodies — sqDistPairAVX2, sqDistBlockAVX2, sqDistBlockAVX512
// and pqScanBlockAVX2 — replicate the scalar references lane-for-lane (see
// kernels.go): in the AVX2 bodies two YMM accumulators carry lanes 0..3
// and 4..7, in the AVX-512 block body one ZMM accumulator per row carries
// all eight; the remainder folds into lane 0 with scalar VEX ops (the
// AVX-512 body runs only where there is none), and the reduction runs the
// reduce8 tree. No FMA — fused rounding would break bit-identity with the
// reference.

//go:noescape
func sqDistPairAVX2(a, b []float64) float64

//go:noescape
func sqDistBlockAVX2(dst, data []float64, stride, dim int, q []float64, ids []int32)

//go:noescape
func sqDistBlockAVX512(dst, data []float64, stride, dim int, q []float64, ids []int32)

//go:noescape
func pqScanBlockAVX2(dst []float64, codes []byte, m int, lut []float64, ids []int32)

func sqDistKernel(a, b []float64) float64 {
	if simd.UseAVX2() {
		return sqDistPairAVX2(a, b)
	}
	return sqDistScalar(a, b)
}

func sqDistBlockKernel(dst, data []float64, stride, dim int, q []float64, ids []int32) {
	switch {
	case simd.UseAVX512() && dim%8 == 0:
		sqDistBlockAVX512(dst, data, stride, dim, q, ids)
	case simd.UseAVX2():
		sqDistBlockAVX2(dst, data, stride, dim, q, ids)
	default:
		sqDistBlockScalar(dst, data, stride, dim, q, ids)
	}
}

func pqScanBlockKernel(dst []float64, codes []byte, m int, lut []float64, ids []int32) {
	if simd.UseAVX2() {
		pqScanBlockAVX2(dst, codes, m, lut, ids)
		return
	}
	pqScanBlockScalar(dst, codes, m, lut, ids)
}
