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

// stepIIFloats are the values randomness step ii must carry as the Go loop
// does: ±1 (a sum of ±0), signed zeros, subnormals, the normal range's
// edges, infinities, NaNs with distinct payloads, and divisors whose
// quotients round (3, 7, 0.1).
var stepIIFloats = []float64{
	1, -1, 0, math.Copysign(0, -1), 5e-324, -1e-310, 2.2250738585072014e-308,
	1.7976931348623157e308, -1.7976931348623157e308, 3, -7, 0.1,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000003),
}

// stepIIRow returns n values behind a start off elements into its backing
// array, every third one from stepIIFloats and the rest random.
func stepIIRow(r *rng.Rand, n, off int) []float64 {
	row := dceRandFloats(r, n+off, 20)[off:]
	for i := range row {
		if r.IntN(3) == 0 {
			row[i] = stepIIFloats[r.IntN(len(stepIIFloats))]
		}
	}
	return row
}

// TestShiftDivBitIdentical holds the AVX2 body of randomness step ii, by
// direct calls, and shiftDivKernel as this process runs it to the Go loop
// on bits, at every length from 0 to 80 behind offsets 0, 1 and 3, for
// both shifts and for scales r_p that round, overflow and underflow.
func TestShiftDivBitIdentical(t *testing.T) {
	r := rng.NewSeeded(467)
	for n := 0; n <= 80; n++ {
		for _, off := range []int{0, 1, 3} {
			src, kv := stepIIRow(r, n, off), stepIIRow(r, n, (off+2)%4)
			for _, rp := range []float64{1, 0.3 + r.Float64(), 1e300, 5e-324} {
				for _, shift := range []float64{1, -1} {
					want := make([]float64, n)
					for i := range want {
						want[i] = rp * (src[i] + shift) / kv[i]
					}
					check := func(body string, got []float64, upTo int) {
						t.Helper()
						for i := range upTo {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s n=%d off=%d rp=%v s=%v element %d: %v·(%v+s)/%v = %v (%#x), Go loop %v (%#x)",
									body, n, off, rp, shift, i, rp, src[i], kv[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
							}
						}
					}
					got := make([]float64, n)
					shiftDivKernel(got, src, kv, rp, shift)
					check("shiftDivKernel", got, n)
					if simd.HasAVX2() {
						m := n &^ 3
						clear(got)
						shiftDivAVX2(got[:m], src[:m], kv[:m], rp, shift)
						check("shiftDivAVX2", got, m)
					}
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
