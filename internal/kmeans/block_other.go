//go:build !amd64

package kmeans

func nearestBlockKernel(best []float64, idx []int, pts []float64, stride, w int, cents []float64, base int) {
	nearestBlockScalar(best, idx, pts, stride, w, cents, base)
}
