//go:build amd64

package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"ppanns/internal/kerneltest"
	"ppanns/internal/rng"
	"ppanns/internal/simd"
)

// The AVX2 bodies are held to the scalar references by direct calls, so
// these tests check AVX2 whatever PPANNS_KERNEL selects for the process.

// kernelTestDims exercises every loop shape: empty, pure tail (1..7), one
// full 8-lane group, group+tail, multiple groups, the paper's padded SIFT
// ctDim neighborhood, and a large odd size.
var kernelTestDims = []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 63, 64, 95, 96, 100, 127, 128, 208, 401, 960}

// TestKernelVariantsBitIdentical compares the AVX2 pair and block kernels
// and the AVX-512 block kernel against the scalar references across all
// loop shapes, deliberately misaligned slices, and tight, padded and odd
// strides with shuffled, duplicated ids, on random rows and on rows mixed
// with kerneltest's special values (NaN payloads aside).
func TestKernelVariantsBitIdentical(t *testing.T) {
	t.Run(simd.AVX2, testAVX2KernelsBitIdentical)
	t.Run(simd.AVX512, testAVX512BlockBitIdentical)
}

// testAVX512BlockBitIdentical holds the four-row block body to the
// reference at every dim it runs for (multiples of 8, 0 included), 0 to 13
// rows (every count of leftover rows, behind zero to three groups of
// four), strides tight, padded and odd, and rows of finite values, of
// signed zeros and subnormals, and of ±Inf and NaN.
func testAVX512BlockBitIdentical(t *testing.T) {
	if !simd.HasAVX512() {
		t.Skip("no usable AVX-512F on this machine")
	}
	r := rng.NewSeeded(419)
	tiny, specials := kerneltest.Specials[:kerneltest.Tiny], kerneltest.Specials
	for _, dim := range []int{0, 8, 16, 96, 200, 960} {
		for _, stride := range kerneltest.Strides(dim) {
			const rows = 16
			data := randFloats(r, stride*rows+dim, 2e3)
			for row := range rows {
				x := data[row*stride : row*stride+dim]
				for i := range x {
					switch {
					case row%4 == 1 && r.IntN(3) == 0:
						x[i] = tiny[r.IntN(len(tiny))]
					case row%4 == 3 && r.IntN(3) == 0:
						x[i] = specials[r.IntN(len(specials))]
					}
				}
				if row%4 == 2 && dim > 0 {
					x[r.IntN(dim)] = specials[r.IntN(len(specials))]
				}
			}
			q := kerneltest.Row(r, dim, 0, 2e3, tiny)
			for n := 0; n <= 13; n++ {
				ids := make([]int32, n)
				for j := range ids {
					ids[j] = int32(r.IntN(rows))
				}
				want := make([]float64, n)
				got := make([]float64, n)
				sqDistBlockScalar(want, data, stride, dim, q, ids)
				sqDistBlockAVX512(got, data, stride, dim, q, ids)
				for j := range ids {
					if !kerneltest.SameBits(got[j], want[j]) {
						t.Fatalf("dim=%d stride=%d rows=%d row %d (id %d): %v (%#x) vs scalar %v (%#x)",
							dim, stride, n, j, ids[j], got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
					}
				}
			}
		}
	}
}

func testAVX2KernelsBitIdentical(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	r := rng.NewSeeded(411)
	for _, dim := range kernelTestDims {
		for _, vals := range [][]float64{nil, kerneltest.Specials} {
			// Rows start at offsets that are not 32-byte aligned; the
			// kernels use unaligned loads and must not care.
			for _, off := range kerneltest.Offsets {
				a := kerneltest.Row(r, dim, off, 2e3, vals)
				b := kerneltest.Row(r, dim, off, 2e3, vals)
				want := sqDistScalar(a, b)
				if got := sqDistPairAVX2(a, b); !kerneltest.SameBits(got, want) {
					t.Fatalf("sqDist dim=%d off=%d specials=%v: %v vs scalar %v", dim, off, vals != nil, got, want)
				}
			}
			if dim == 0 {
				continue
			}
			// Block form at every stride, ids shuffled with duplicates,
			// the last row included.
			for _, stride := range kerneltest.Strides(dim) {
				const rows = 17
				data := kerneltest.Row(r, stride*rows, 0, 2e3, vals)
				q := kerneltest.Row(r, dim, 0, 2e3, vals)
				ids := []int32{0, 16, 3, 3, 9, 1, 16, 0, 12, 7}
				want := make([]float64, len(ids))
				got := make([]float64, len(ids))
				sqDistBlockScalar(want, data, stride, dim, q, ids)
				sqDistBlockAVX2(got, data, stride, dim, q, ids)
				for j := range ids {
					if !kerneltest.SameBits(got[j], want[j]) {
						t.Fatalf("sqDistBlock dim=%d stride=%d specials=%v id=%d: %v vs scalar %v",
							dim, stride, vals != nil, ids[j], got[j], want[j])
					}
				}
			}
		}
	}
}

// pqTestMs exercises every loop shape of the LUT scan: one subspace, the
// common 8/16 widths, odd widths, and a wide code.
var pqTestMs = []int{1, 2, 3, 4, 7, 8, 13, 16, 24, 32, 48, 96}

// pqTestCodes builds a code arena of n rows with the gather slack the
// AVX2 body's dword code loads require.
func pqTestCodes(r *rng.Rand, n, m, k int) []byte {
	codes := make([]byte, n*m, n*m+8)
	for i := range codes {
		codes[i] = byte(r.IntN(k))
	}
	return codes
}

// TestPQScanKernelVariantsBitIdentical compares the AVX2 LUT scan against
// the scalar reference across code widths, id-set shapes (including the
// 4-lane remainder cases), duplicated and shuffled ids, partial-K LUTs and
// LUTs mixed with kerneltest's special values.
func TestPQScanKernelVariantsBitIdentical(t *testing.T) {
	t.Run(simd.AVX2, testAVX2PQScanBitIdentical)
}

func testAVX2PQScanBitIdentical(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	r := rng.NewSeeded(977)
	for _, m := range pqTestMs {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 64, 257} {
			for _, k := range []int{1, 3, 256} {
				codes := pqTestCodes(r, n, m, k)
				lut := kerneltest.Row(r, m*256, 0, 2e3, kerneltest.Specials)
				ids := make([]int32, 0, 2*n)
				for i := 0; i < n; i++ {
					ids = append(ids, int32(i))
				}
				// Shuffle with duplicates, keeping the last row in
				// play so the over-read lands at the arena's true
				// end.
				for i := 0; i < n/2; i++ {
					ids = append(ids, int32(r.IntN(n)))
				}
				ids = append(ids, int32(n-1))
				r.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
				want := make([]float64, len(ids))
				got := make([]float64, len(ids))
				pqScanBlockScalar(want, codes, m, lut, ids)
				pqScanBlockAVX2(got, codes, m, lut, ids)
				for j := range want {
					if !kerneltest.SameBits(got[j], want[j]) {
						t.Fatalf("m=%d n=%d k=%d id=%d: %v vs scalar %v", m, n, k, ids[j], got[j], want[j])
					}
				}
			}
		}
	}
}

// fuzzFloats decodes raw bytes into a deterministic float64 slice of
// length n starting at element offset off, replacing NaN with a finite
// stand-in (NaN compares unequal to itself, which would flag the AVX2 body
// as "divergent" without testing anything).
func fuzzFloats(data []byte, n, off int) []float64 {
	out := make([]float64, n)
	for i := range out {
		var bits uint64
		for b := 0; b < 8; b++ {
			idx := (off + i) * 8
			if idx+b < len(data) {
				bits |= uint64(data[idx+b]) << (8 * b)
			} else {
				bits |= uint64(off+i+b) << (8 * b) // deterministic filler
			}
		}
		v := math.Float64frombits(bits)
		if math.IsNaN(v) {
			v = float64(i) * 0.5
		}
		out[i] = v
	}
	return out
}

// FuzzSqDistKernelEquivalence feeds arbitrary bit patterns (infinities and
// denormals included), arbitrary lengths and slice offsets to the AVX2
// kernels and requires bit-identical results against the scalar
// references — the fuzz form of the kernel conformance suite, including
// the padded-stride block path with fuzzer-chosen ids.
func FuzzSqDistKernelEquivalence(f *testing.F) {
	seed := make([]byte, 64)
	binary.LittleEndian.PutUint64(seed, math.Float64bits(1.5))
	f.Add(uint16(13), uint8(1), seed)
	f.Add(uint16(96), uint8(0), []byte{})
	f.Add(uint16(8), uint8(3), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xF0, 0x7F}) // +Inf element
	f.Fuzz(func(t *testing.T, dimRaw uint16, offRaw uint8, data []byte) {
		if !simd.HasAVX2() {
			t.Skip("no AVX2 on this machine")
		}
		dim := int(dimRaw) % 257
		off := int(offRaw) % 4
		a := fuzzFloats(data, dim+off, 0)[off:]
		b := fuzzFloats(data, dim+off, dim)[off:]
		if got, want := sqDistPairAVX2(a, b), sqDistScalar(a, b); !kerneltest.SameBits(got, want) {
			t.Fatalf("sqDist(dim=%d off=%d) = %v (%#x), scalar %v (%#x)",
				dim, off, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if dim == 0 {
			return
		}
		// Block path: rows strided through a padded arena, ids derived from
		// the fuzz bytes (duplicates and reorderings included).
		stride := PadStride(dim)
		const rows = 5
		arena := NewRows[float64](stride, stride, rows).Raw()
		flat := fuzzFloats(data, dim*rows, 7)
		for r := 0; r < rows; r++ {
			copy(arena[r*stride:r*stride+dim], flat[r*dim:(r+1)*dim])
		}
		ids := make([]int32, 1+len(data)%7)
		for i := range ids {
			if i < len(data) {
				ids[i] = int32(data[i]) % rows
			}
		}
		want := make([]float64, len(ids))
		sqDistBlockScalar(want, arena, stride, dim, a, ids)
		got := make([]float64, len(ids))
		sqDistBlockAVX2(got, arena, stride, dim, a, ids)
		for j := range ids {
			if !kerneltest.SameBits(got[j], want[j]) {
				t.Fatalf("sqDistBlock(dim=%d)[%d] = %v, scalar %v", dim, j, got[j], want[j])
			}
		}
	})
}

// variantNames lists the kernel variants this machine runs, scalar first:
// the per-variant benchmarks run each side by side.
func variantNames() []string {
	switch {
	case simd.HasAVX512():
		return []string{simd.Scalar, simd.AVX2, simd.AVX512}
	case simd.HasAVX2():
		return []string{simd.Scalar, simd.AVX2}
	}
	return []string{simd.Scalar}
}

// BenchmarkSqDistKernels measures the pair kernel per variant — the
// per-kernel numbers the bench harness's regression gate tracks.
func BenchmarkSqDistKernels(b *testing.B) {
	r := rng.NewSeeded(421)
	for _, dim := range []int{96, 128, 960} {
		a := randFloats(r, dim, 100)
		c := randFloats(r, dim, 100)
		for _, name := range variantNames() {
			sqDist := sqDistScalar
			switch name {
			case simd.AVX512:
				continue // the pair kernel has no 512-bit body
			case simd.AVX2:
				sqDist = sqDistPairAVX2
			}
			b.Run(fmt.Sprintf("%s/d=%d", name, dim), func(b *testing.B) {
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += sqDist(a, c)
				}
				_ = sink
			})
		}
	}
}

// BenchmarkSqDistBlockKernels measures the block kernel per variant over a
// padded arena at the filter phase's typical candidate-block size; both
// dims are multiples of 8, so the avx512 rows run the four-row body.
func BenchmarkSqDistBlockKernels(b *testing.B) {
	r := rng.NewSeeded(423)
	for _, dim := range []int{96, 960} {
		stride := PadStride(dim)
		const rows = 256
		data := NewRows[float64](stride, stride, rows).Raw()
		for i := range data {
			data[i] = r.Float64()
		}
		q := randFloats(r, dim, 1)
		ids := make([]int32, 64)
		for i := range ids {
			ids[i] = int32((i * 37) % rows)
		}
		dst := make([]float64, len(ids))
		for _, name := range variantNames() {
			block := sqDistBlockScalar
			switch name {
			case simd.AVX512:
				block = sqDistBlockAVX512
			case simd.AVX2:
				block = sqDistBlockAVX2
			}
			b.Run(fmt.Sprintf("%s/d=%d", name, dim), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(ids) * dim * 8))
				for i := 0; i < b.N; i++ {
					block(dst, data, stride, dim, q, ids)
				}
			})
		}
	}
}

// BenchmarkPQScanBlockKernels benchmarks the LUT scan per variant at a
// realistic shape: 64-id blocks over a 100k-point arena at M=16.
func BenchmarkPQScanBlockKernels(b *testing.B) {
	r := rng.NewSeeded(31)
	const n, m = 100000, 16
	codes := pqTestCodes(r, n, m, 256)
	lut := randFloats(r, m*256, 2e3)
	ids := make([]int32, 64)
	for i := range ids {
		ids[i] = int32(r.IntN(n))
	}
	dst := make([]float64, len(ids))
	for _, name := range variantNames() {
		scan := pqScanBlockScalar
		switch name {
		case simd.AVX512:
			continue // the LUT scan has no 512-bit body
		case simd.AVX2:
			scan = pqScanBlockAVX2
		}
		b.Run("variant="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scan(dst, codes, m, lut, ids)
			}
		})
	}
}
