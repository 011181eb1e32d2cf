//go:build amd64

package matrix

import (
	"math"
	"testing"

	"ppanns/internal/rng"
	"ppanns/internal/simd"
)

// TestAVX2KernelsBitIdentical holds the assembly loop bodies to the Go
// references at every length around their 16-, 8-, 4- and 1-element steps
// and at misaligned bases; the panel kernels (the AVX2 body and, where
// AVX-512F is usable, the AVX-512 one) also at source-row counts around
// their four-row steps and at a stride wider than the rows they read.
func TestAVX2KernelsBitIdentical(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	r := rng.NewSeeded(14)
	for n := 0; n <= 80; n++ {
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
	t.Run("axpyPanel4AVX2", func(t *testing.T) { testPanelBody(t, axpyPanel4AVX2) })
	t.Run("axpyPanel4AVX512", func(t *testing.T) {
		if !simd.HasAVX512() {
			t.Skip("no usable AVX-512F on this machine")
		}
		testPanelBody(t, axpyPanel4AVX512)
	})
}

// testPanelBody holds one body of axpyPanel4 to axpyPanel4Scalar, bit for
// bit, at 0–80 columns, 0–64 source rows, base offsets 0, 1 and 3 and a
// stride five floats wider than the columns.
func testPanelBody(t *testing.T, body func(d0, d1, d2, d3, c []float64, cs, rows int, src []float64, stride int)) {
	r := rng.NewSeeded(15)
	for n := 0; n <= 80; n++ {
		for _, off := range []int{0, 1, 3} {
			for _, p := range []int{0, 1, 3, 4, 9, 64} {
				stride, cs := n+5, p+2
				src := rng.Gaussian(r, nil, off+p*stride)[off:]
				c := rng.Gaussian(r, nil, off+4*cs)[off:]
				var got, want [4][]float64
				for q := range got {
					want[q] = rng.Gaussian(r, nil, n+off)[off:]
					got[q] = make([]float64, n+off)[off:]
					copy(got[q], want[q])
				}
				body(got[0], got[1], got[2], got[3], c, cs, p, src, stride)
				axpyPanel4Scalar(want[0], want[1], want[2], want[3], c, cs, p, src, stride)
				for q := range want {
					for j := range want[q] {
						if math.Float64bits(got[q][j]) != math.Float64bits(want[q][j]) {
							t.Fatalf("n=%d off=%d P=%d destination %d element %d: %v, reference %v", n, off, p, q, j, got[q][j], want[q][j])
						}
					}
				}
			}
		}
	}
}
