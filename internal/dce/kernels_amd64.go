//go:build amd64

package dce

import "ppanns/internal/simd"

// The assembly body of the comparison kernel, distCompPairAVX2, replicates
// the scalar reference lane-for-lane (see kernels.go): two YMM accumulators
// carry lanes 0..3 and 4..7, the remainder folds into lane 0 with scalar
// VEX ops, and the reduction runs the reduce8 tree. No FMA — fused rounding
// would break bit-identity with the reference, and a rounding difference
// here can flip a comparison sign on a near-tie.

//go:noescape
func distCompPairAVX2(o1, o2, p3, p4, q []float64) float64

// distCompKernel computes Σᵢ (o1ᵢ·p3ᵢ − o2ᵢ·p4ᵢ)·qᵢ.
func distCompKernel(o1, o2, p3, p4, q []float64) float64 {
	if simd.UseAVX2() {
		return distCompPairAVX2(o1, o2, p3, p4, q)
	}
	return distCompScalar(o1, o2, p3, p4, q)
}
