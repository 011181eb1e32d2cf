//go:build amd64

package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"ppanns/internal/rng"
	"ppanns/internal/simd"
)

// The AVX2 bodies are held to the scalar references by direct calls, so
// these tests check AVX2 whatever PPANNS_KERNEL selects for the process.

// kernelTestDims exercises every loop shape: empty, pure tail (1..7), one
// full 8-lane group, group+tail, multiple groups, the paper's padded SIFT
// ctDim neighborhood, and a large odd size.
var kernelTestDims = []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 63, 64, 95, 96, 100, 127, 128, 208, 401, 960}

// sameBits reports whether got and want are the same float64, NaN
// payloads aside.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// TestKernelVariantsBitIdentical compares the AVX2 pair and block kernels
// and the AVX-512 block kernel against the scalar references across all
// loop shapes, deliberately misaligned slices, and padded-stride arenas
// with shuffled, duplicated ids.
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
	finite := specialFloats[:6] // ±0 and subnormals
	for _, dim := range []int{0, 8, 16, 96, 200, 960} {
		for _, stride := range []int{dim, PadStride(dim), dim + 5} {
			const rows = 16
			data := randFloats(r, stride*rows+dim, 2e3)
			for row := range rows {
				x := data[row*stride : row*stride+dim]
				for i := range x {
					switch {
					case row%4 == 1 && r.IntN(3) == 0:
						x[i] = finite[r.IntN(len(finite))]
					case row%4 == 3 && r.IntN(3) == 0:
						x[i] = specialFloats[r.IntN(len(specialFloats))]
					}
				}
				if row%4 == 2 && dim > 0 {
					x[r.IntN(dim)] = specialFloats[r.IntN(len(specialFloats))]
				}
			}
			q := randFloats(r, dim, 2e3)
			for i := range q {
				if r.IntN(5) == 0 {
					q[i] = finite[r.IntN(len(finite))]
				}
			}
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
					if !sameBits(got[j], want[j]) {
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
		for off := 0; off < 4; off++ {
			// Slice at an offset so the data is NOT 32-byte aligned
			// for most off values — the kernels use unaligned loads
			// and must not care.
			a := randFloats(r, dim+off, 2e3)[off:]
			b := randFloats(r, dim+off, 2e3)[off:]
			want := sqDistScalar(a, b)
			if got := sqDistPairAVX2(a, b); !sameBits(got, want) {
				t.Fatalf("sqDist dim=%d off=%d: %v vs scalar %v", dim, off, got, want)
			}
		}
		if dim == 0 {
			continue
		}
		// Block form over a padded arena: stride > dim, ids
		// shuffled with duplicates, including the last row.
		stride := PadStride(dim)
		rows := 17
		data := NewRows[float64](stride, stride, rows).Raw()
		for i := range data {
			data[i] = (r.Float64() - 0.5) * 2e3
		}
		q := randFloats(r, dim, 2e3)
		ids := []int32{0, 16, 3, 3, 9, 1, 16, 0, 12, 7}
		want := make([]float64, len(ids))
		got := make([]float64, len(ids))
		sqDistBlockScalar(want, data, stride, dim, q, ids)
		sqDistBlockAVX2(got, data, stride, dim, q, ids)
		for j := range ids {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("sqDistBlock dim=%d id=%d: %v vs scalar %v", dim, ids[j], got[j], want[j])
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
// 4-lane remainder cases), duplicated and shuffled ids, and partial-K LUTs.
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
				lut := randFloats(r, m*256, 2e3)
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
					if !sameBits(got[j], want[j]) {
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
		if got, want := sqDistPairAVX2(a, b), sqDistScalar(a, b); !sameBits(got, want) {
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
			if !sameBits(got[j], want[j]) {
				t.Fatalf("sqDistBlock(dim=%d)[%d] = %v, scalar %v", dim, j, got[j], want[j])
			}
		}
	})
}

// specialFloats are the values an element-wise body must pass through as
// the Go loop does: signed zeros, subnormals, the normal range's edges,
// infinities and NaNs with distinct payloads (where both operands are NaN,
// the payload shows which one the body returned).
var specialFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
	1, -1, 0.1, 1.7976931348623157e308, -1.7976931348623157e308,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
}

// specialRow returns n values behind a start off elements into its backing
// array, every third one a special float and the rest random.
func specialRow(r *rng.Rand, n, off int) []float64 {
	row := randFloats(r, n+off, 2e3)[off:]
	for i := range row {
		if r.IntN(3) == 0 {
			row[i] = specialFloats[r.IntN(len(specialFloats))]
		}
	}
	return row
}

// TestAddBitIdentical holds the AVX2 body of Add, by direct calls, and Add
// as this process runs it to the Go loop on bits, at every length from 0
// to 80 behind offsets 0, 1 and 3, with dst a fresh slice and dst = a.
func TestAddBitIdentical(t *testing.T) {
	r := rng.NewSeeded(463)
	for n := 0; n <= 80; n++ {
		for _, off := range []int{0, 1, 3} {
			a, b := specialRow(r, n, off), specialRow(r, n, (off+1)%4)
			want := make([]float64, n)
			for i := range want {
				want[i] = a[i] + b[i]
			}
			check := func(body string, got []float64, upTo int) {
				t.Helper()
				for i := range upTo {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d off=%d element %d: %v + %v = %v (%#x), Go loop %v (%#x)",
							body, n, off, i, a[i], b[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
			check("Add", Add(nil, a, b), n)
			inPlace := append(make([]float64, off), a...)[off:]
			check("Add in place", Add(inPlace, inPlace, b), n)
			if simd.HasAVX2() {
				m := n &^ 3
				got := make([]float64, m)
				addAVX2(got, a[:m], b[:m])
				check("addAVX2", got, m)
				copy(inPlace, a)
				addAVX2(inPlace[:m], inPlace[:m], b[:m])
				check("addAVX2 in place", inPlace, m)
			}
		}
	}
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
