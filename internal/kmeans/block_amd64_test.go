//go:build amd64

package kmeans

import "ppanns/internal/simd"

// The vector bodies join the bodies under test wherever the machine runs
// them, whatever kernel variant the process picked.
func init() {
	if simd.HasAVX2() {
		blockBodies["avx2"] = nearestBlockVector
	}
	if simd.HasAVX512() {
		blockBodies["avx512"] = nearestBlockVector512
	}
}
