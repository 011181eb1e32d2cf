//go:build amd64

package matrix

import "ppanns/internal/simd"

// The wrappers run the assembly bodies of axpyPanel4 and dot8 when
// simd.UseAVX2: the machine has AVX2 and PPANNS_KERNEL does not force the
// scalar reference. The panel kernel runs its AVX-512 body instead when
// simd.UseAVX512. Every body computes the same bits on every input without
// a NaN (kernels.go), so the choice is about speed only.

//go:noescape
func axpyPanel4AVX512(d0, d1, d2, d3, c []float64, cs, rows int, src []float64, stride int)

//go:noescape
func axpyPanel4AVX2(d0, d1, d2, d3, c []float64, cs, rows int, src []float64, stride int)

//go:noescape
func dot8AVX2(a, b []float64) float64

func axpyPanel4(d0, d1, d2, d3, c []float64, cs, rows int, src []float64, stride int) {
	if simd.UseAVX512() {
		axpyPanel4AVX512(d0, d1, d2, d3, c, cs, rows, src, stride)
		return
	}
	if simd.UseAVX2() {
		axpyPanel4AVX2(d0, d1, d2, d3, c, cs, rows, src, stride)
		return
	}
	axpyPanel4Scalar(d0, d1, d2, d3, c, cs, rows, src, stride)
}

func dot8(a, b []float64) float64 {
	if simd.UseAVX2() {
		return dot8AVX2(a, b)
	}
	return dot8Scalar(a, b)
}
