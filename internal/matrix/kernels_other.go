//go:build !amd64

package matrix

func axpy4(dst, r0, r1, r2, r3 []float64, a0, a1, a2, a3 float64) {
	axpy4Scalar(dst, r0, r1, r2, r3, a0, a1, a2, a3)
}

func dot8(a, b []float64) float64 { return dot8Scalar(a, b) }
