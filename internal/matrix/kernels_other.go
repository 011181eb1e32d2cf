//go:build !amd64

package matrix

func axpyPanel4(d0, d1, d2, d3, c []float64, cs, rows int, src []float64, stride int) {
	axpyPanel4Scalar(d0, d1, d2, d3, c, cs, rows, src, stride)
}

func dot8(a, b []float64) float64 { return dot8Scalar(a, b) }
