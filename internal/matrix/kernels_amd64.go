//go:build amd64

package matrix

import "ppanns/internal/simd"

// The wrappers run the assembly loop bodies when simd.UseAVX2: the machine
// has AVX2 and PPANNS_KERNEL does not force the scalar reference. Both
// bodies compute the same bits, so the choice is about speed only.

//go:noescape
func axpyPanel4AVX2(d0, d1, d2, d3, c []float64, cs, rows int, src []float64, stride int)

//go:noescape
func axpy4AVX2(dst, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func dot8AVX2(a, b []float64) float64

func axpyPanel4(d0, d1, d2, d3, c []float64, cs, rows int, src []float64, stride int) {
	if simd.UseAVX2() {
		axpyPanel4AVX2(d0, d1, d2, d3, c, cs, rows, src, stride)
		return
	}
	axpyPanel4Scalar(d0, d1, d2, d3, c, cs, rows, src, stride)
}

func axpy4(dst, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64) {
	if simd.UseAVX2() {
		axpy4AVX2(dst, r0, r1, r2, r3, a0, a1, a2, a3)
		return
	}
	axpy4Scalar(dst, r0, r1, r2, r3, a0, a1, a2, a3)
}

func dot8(a, b []float64) float64 {
	if simd.UseAVX2() {
		return dot8AVX2(a, b)
	}
	return dot8Scalar(a, b)
}
