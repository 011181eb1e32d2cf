//go:build amd64

package matrix

import (
	"math"
	"testing"

	"ppanns/internal/kerneltest"
	"ppanns/internal/rng"
	"ppanns/internal/simd"
)

// TestAVX2KernelsBitIdentical holds the assembly bodies to the Go
// references, bit for bit, on every input without a NaN — the contract of
// kernels.go: Gaussian rows, alone and mixed with every special value short
// of NaN (signed zeros, subnormals, ±MaxFloat64, ±Inf), at every length
// around their 16-, 8-, 4- and 1-element steps and at misaligned bases;
// the panel kernels (the AVX2 body and, where AVX-512F is usable, the
// AVX-512 one) also at source-row counts around their four-row steps and
// at a stride wider than the rows they read.
func TestAVX2KernelsBitIdentical(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	r := rng.NewSeeded(14)
	for n := 0; n <= 80; n++ {
		for _, off := range kerneltest.Offsets {
			for _, vals := range [][]float64{nil, kerneltest.Specials[:kerneltest.NonNaN]} {
				a, b := gaussianRow(r, n, off, vals), gaussianRow(r, n, off, vals)
				if g, w := dot8AVX2(a, b), dot8Scalar(a, b); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("dot8 n=%d off=%d specials=%v: %v, reference %v", n, off, vals != nil, g, w)
				}
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

// gaussianRow returns n standard Gaussian values starting off elements
// into their backing array, about a third of them replaced by one of vals.
func gaussianRow(r *rng.Rand, n, off int, vals []float64) []float64 {
	row := rng.Gaussian(r, nil, n+off)[off:]
	kerneltest.Mix(r, row, vals)
	return row
}

// testPanelBody holds one body of axpyPanel4 to axpyPanel4Scalar, bit for
// bit, at 0–80 columns, 0–64 source rows, base offsets 0, 1 and 3 and a
// stride five floats wider than the columns, on Gaussian operands alone
// and mixed with every special value short of NaN.
func testPanelBody(t *testing.T, body func(d0, d1, d2, d3, c []float64, cs, rows int, src []float64, stride int)) {
	r := rng.NewSeeded(15)
	for n := 0; n <= 80; n++ {
		for _, off := range kerneltest.Offsets {
			for _, p := range []int{0, 1, 3, 4, 9, 64} {
				for _, vals := range [][]float64{nil, kerneltest.Specials[:kerneltest.NonNaN]} {
					stride, cs := n+5, p+2
					src := gaussianRow(r, p*stride, off, vals)
					c := gaussianRow(r, 4*cs, off, vals)
					var got, want [4][]float64
					for q := range got {
						want[q] = gaussianRow(r, n, off, vals)
						got[q] = make([]float64, n+off)[off:]
						copy(got[q], want[q])
					}
					body(got[0], got[1], got[2], got[3], c, cs, p, src, stride)
					axpyPanel4Scalar(want[0], want[1], want[2], want[3], c, cs, p, src, stride)
					for q := range want {
						for j := range want[q] {
							if math.Float64bits(got[q][j]) != math.Float64bits(want[q][j]) {
								t.Fatalf("n=%d off=%d P=%d specials=%v destination %d element %d: %v, reference %v",
									n, off, p, vals != nil, q, j, got[q][j], want[q][j])
							}
						}
					}
				}
			}
		}
	}
}
