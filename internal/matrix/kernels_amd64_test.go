//go:build amd64

package matrix

import (
	"math"
	"testing"

	"ppanns/internal/rng"
	"ppanns/internal/simd"
)

// TestAVX2KernelsBitIdentical holds the assembly loop bodies to the Go
// references at every length around their 8-, 4- and 1-element steps and
// at misaligned bases.
func TestAVX2KernelsBitIdentical(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	r := rng.NewSeeded(14)
	for n := 0; n <= 70; n++ {
		for _, off := range []int{0, 1, 3} {
			rows := make([][]float64, 5)
			for i := range rows {
				rows[i] = rng.Gaussian(r, nil, n+off)[off:]
			}
			a := rng.Gaussian(r, nil, 4)
			got := append([]float64(nil), rows[4]...)
			want := append([]float64(nil), rows[4]...)
			axpy4AVX2(got, rows[0], rows[1], rows[2], rows[3], a[0], a[1], a[2], a[3])
			axpy4Scalar(want, rows[0], rows[1], rows[2], rows[3], a[0], a[1], a[2], a[3])
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("axpy4 n=%d off=%d element %d: %v, reference %v", n, off, j, got[j], want[j])
				}
			}
			if g, w := dot8AVX2(rows[0], rows[1]), dot8Scalar(rows[0], rows[1]); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("dot8 n=%d off=%d: %v, reference %v", n, off, g, w)
			}
		}
	}
}
