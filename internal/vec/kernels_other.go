//go:build !amd64

package vec

// Non-amd64 builds run the portable scalar references; a NEON body would
// branch here the way kernels_amd64.go does.

func sqDistKernel(a, b []float64) float64 { return sqDistScalar(a, b) }

func sqDistBlockKernel(dst, data []float64, stride, dim int, q []float64, ids []int32) {
	sqDistBlockScalar(dst, data, stride, dim, q, ids)
}

func pqScanBlockKernel(dst []float64, codes []byte, m int, lut []float64, ids []int32) {
	pqScanBlockScalar(dst, codes, m, lut, ids)
}
