//go:build amd64

package kmeans

import "ppanns/internal/simd"

//go:noescape
func nearestBlockAVX2(best []float64, idx []int, pts []float64, stride, w int, cents []float64, base int)

// nearestBlockKernel runs nearestBlockVector when simd.UseAVX2 and the
// reference otherwise: both compute the same bits.
func nearestBlockKernel(best []float64, idx []int, pts []float64, stride, w int, cents []float64, base int) {
	if simd.UseAVX2() {
		nearestBlockVector(best, idx, pts, stride, w, cents, base)
		return
	}
	nearestBlockScalar(best, idx, pts, stride, w, cents, base)
}

// nearestBlockVector runs the AVX2 body over the points in groups of four
// and the last one to three points through the reference.
func nearestBlockVector(best []float64, idx []int, pts []float64, stride, w int, cents []float64, base int) {
	n := len(best) &^ 3
	if n > 0 {
		nearestBlockAVX2(best[:n], idx[:n], pts, stride, w, cents, base)
	}
	if n < len(best) {
		nearestBlockScalar(best[n:], idx[n:], pts[n:], stride, w, cents, base)
	}
}
