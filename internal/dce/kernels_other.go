//go:build !amd64

package dce

// Non-amd64 builds run the portable scalar reference; a NEON body would
// branch here the way kernels_amd64.go does.

// distCompKernel computes Σᵢ (o1ᵢ·p3ᵢ − o2ᵢ·p4ᵢ)·qᵢ.
func distCompKernel(o1, o2, p3, p4, q []float64) float64 {
	return distCompScalar(o1, o2, p3, p4, q)
}
