//go:build amd64

package kmeans

import "ppanns/internal/simd"

// The AVX2 body joins the bodies under test wherever the machine runs it,
// whatever kernel variant the process picked.
func init() {
	if simd.HasAVX2() {
		blockBodies["avx2"] = nearestBlockVector
	}
}
