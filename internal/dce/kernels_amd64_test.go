//go:build amd64

package dce

import (
	"fmt"
	"math"
	"testing"

	"ppanns/internal/rng"
	"ppanns/internal/simd"
)

// kernelTestDims covers every loop shape of the comparison kernel: pure
// tail, full groups, group+tail, and the even ctDims real stores produce
// (ctDim = 2·padDim+16 is always even), plus odd sizes for robustness.
var kernelTestDims = []int{1, 3, 7, 8, 9, 15, 16, 17, 48, 63, 64, 100, 208, 401, 960}

func dceRandFloats(r *rng.Rand, n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (r.Float64() - 0.5) * scale
	}
	return out
}

// TestDCEKernelVariantsBitIdentical holds the AVX2 pair kernel to the
// scalar reference, by direct calls, across all loop shapes and unaligned
// slice offsets — whatever PPANNS_KERNEL selects for the process.
func TestDCEKernelVariantsBitIdentical(t *testing.T) {
	t.Run(simd.AVX2, testAVX2KernelBitIdentical)
}

func testAVX2KernelBitIdentical(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	r := rng.NewSeeded(431)
	for _, d := range kernelTestDims {
		for off := 0; off < 4; off++ {
			o1 := dceRandFloats(r, d+off, 20)[off:]
			o2 := dceRandFloats(r, d+off, 20)[off:]
			p3 := dceRandFloats(r, d+off, 20)[off:]
			p4 := dceRandFloats(r, d+off, 20)[off:]
			q := dceRandFloats(r, d+off, 20)[off:]
			want := distCompScalar(o1, o2, p3, p4, q)
			if got := distCompPairAVX2(o1, o2, p3, p4, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("distComp d=%d off=%d: %v vs scalar %v", d, off, got, want)
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
		o1 := dceRandFloats(r, d, 20)
		o2 := dceRandFloats(r, d, 20)
		p3 := dceRandFloats(r, d, 20)
		p4 := dceRandFloats(r, d, 20)
		q := dceRandFloats(r, d, 20)
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
