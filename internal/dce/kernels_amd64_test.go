//go:build amd64

package dce

import (
	"fmt"
	"math"
	"testing"

	"ppanns/internal/kerneltest"
	"ppanns/internal/rng"
	"ppanns/internal/simd"
)

// kernelTestDims covers every loop shape of the comparison kernel: pure
// tail, full groups, group+tail, and the even ctDims real stores produce
// (ctDim = 2·padDim+16 is always even), plus odd sizes for robustness.
var kernelTestDims = []int{1, 3, 7, 8, 9, 15, 16, 17, 48, 63, 64, 100, 208, 401, 960}

// TestDCEKernelVariantsBitIdentical holds the AVX2 pair kernel to the
// scalar reference, by direct calls, across all loop shapes and unaligned
// slice offsets, on random operands and on operands mixed with every
// special value, NaN payloads aside — whatever PPANNS_KERNEL selects for
// the process.
func TestDCEKernelVariantsBitIdentical(t *testing.T) {
	t.Run(simd.AVX2, testAVX2KernelBitIdentical)
}

func testAVX2KernelBitIdentical(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	r := rng.NewSeeded(431)
	for _, d := range kernelTestDims {
		for _, off := range kerneltest.Offsets {
			for _, vals := range [][]float64{nil, kerneltest.Specials} {
				o1 := kerneltest.Row(r, d, off, 20, vals)
				o2 := kerneltest.Row(r, d, off, 20, vals)
				p3 := kerneltest.Row(r, d, off, 20, vals)
				p4 := kerneltest.Row(r, d, off, 20, vals)
				q := kerneltest.Row(r, d, off, 20, vals)
				want := distCompScalar(o1, o2, p3, p4, q)
				if got := distCompPairAVX2(o1, o2, p3, p4, q); !kerneltest.SameBits(got, want) {
					t.Fatalf("distComp d=%d off=%d specials=%v: %v (%#x) vs scalar %v (%#x)",
						d, off, vals != nil, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// BenchmarkDistCompKernels measures the pair kernel per variant, side by
// side, at the paper's padded-SIFT ctDim and a small dimension.
func BenchmarkDistCompKernels(b *testing.B) {
	r := rng.NewSeeded(437)
	names := []string{simd.Scalar}
	if simd.HasAVX2() {
		names = append(names, simd.AVX2)
	}
	for _, d := range []int{96, 208} {
		o1 := kerneltest.Row(r, d, 0, 20, nil)
		o2 := kerneltest.Row(r, d, 0, 20, nil)
		p3 := kerneltest.Row(r, d, 0, 20, nil)
		p4 := kerneltest.Row(r, d, 0, 20, nil)
		q := kerneltest.Row(r, d, 0, 20, nil)
		for _, name := range names {
			distComp := distCompScalar
			if name == simd.AVX2 {
				distComp = distCompPairAVX2
			}
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += distComp(o1, o2, p3, p4, q)
				}
				_ = sink
			})
		}
	}
}
