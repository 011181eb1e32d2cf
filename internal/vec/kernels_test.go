package vec

import (
	"math"
	"sort"
	"testing"

	"ppanns/internal/rng"
	"ppanns/internal/simd"
)

func randFloats(r *rng.Rand, n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (r.Float64() - 0.5) * scale
	}
	return out
}

// TestKernelRankingInvariance checks the property the refine phase
// actually depends on: sorting candidates by the block distances of the
// variant this process runs yields the scalar reference's order.
func TestKernelRankingInvariance(t *testing.T) {
	r := rng.NewSeeded(413)
	const dim, rows = 100, 64
	d := newDataset(dim, rows)
	for i := 0; i < rows; i++ {
		d.Append(randFloats(r, dim, 10))
	}
	q := randFloats(r, dim, 10)
	ids := make([]int32, rows)
	for i := range ids {
		ids[i] = int32(i)
	}
	rank := func(dists []float64) []int32 {
		order := append([]int32(nil), ids...)
		sort.SliceStable(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
		return order
	}
	want := make([]float64, rows)
	sqDistBlockScalar(want, d.rows.Raw(), d.Stride(), dim, q, ids)
	wantOrder := rank(want)
	for i, id := range rank(d.SqDistBlock(nil, q, ids)) {
		if id != wantOrder[i] {
			t.Fatalf("%s: ranking diverges from scalar at position %d", ActiveKernel(), i)
		}
	}
}

// TestKernelRegistryShape pins what ActiveKernel reports: the widest body
// that runs, which is avx512 exactly where simd.UseAVX512 holds (the block
// kernel's 512-bit body), avx2 where only simd.UseAVX2 does, and scalar
// elsewhere — never a body the machine cannot run.
func TestKernelRegistryShape(t *testing.T) {
	want := simd.Scalar
	switch {
	case simd.UseAVX512():
		want = simd.AVX512
	case simd.UseAVX2():
		want = simd.AVX2
	}
	if got := ActiveKernel(); got != want {
		t.Fatalf("ActiveKernel() = %q under simd.Kernel() = %q, want %q", got, simd.Kernel(), want)
	}
	if ActiveKernel() == simd.AVX2 && !simd.HasAVX2() {
		t.Fatalf("ActiveKernel() = avx2 without usable AVX2")
	}
	if ActiveKernel() == simd.AVX512 && !simd.HasAVX512() {
		t.Fatalf("ActiveKernel() = avx512 without usable AVX-512F")
	}
}

// TestDatasetAlignment asserts the layout contract the block kernels rely
// on: padded stride, cache-line-aligned base, and therefore aligned row
// starts. TestRowsDiscipline covers the arena's allocations.
func TestDatasetAlignment(t *testing.T) {
	for _, dim := range []int{1, 7, 8, 13, 96, 100, 960} {
		d := newDataset(dim, 3)
		if got := d.rows.Cap(); got != 3 {
			t.Fatalf("dim %d: a capacity hint of 3 rows allocated %d", dim, got)
		}
		if d.Stride()%cacheLineFloats != 0 {
			t.Fatalf("dim %d: stride %d not a multiple of %d", dim, d.Stride(), cacheLineFloats)
		}
		if d.Stride() != PadStride(dim) {
			t.Fatalf("dim %d: stride %d, want %d", dim, d.Stride(), PadStride(dim))
		}
		r := rng.NewSeeded(uint64(dim))
		for i := 0; i < 5; i++ {
			d.Append(randFloats(r, dim, 1))
		}
		for i := 0; i < d.Len(); i++ {
			if !aligned(d.At(i)) {
				t.Fatalf("dim %d: row %d base not 64-byte aligned", dim, i)
			}
		}
	}
}

// TestSqDistRowsMatchesSqDist: over a contiguous block, the row distances
// equal the scalar reference kernel's bit for bit — on the inline path
// below eight elements, which calls no kernel on the grounds that every
// variant reduces to the sequential loop there, and on the kernel path
// above it. The forced-scalar CI leg runs it on the other variant.
func TestSqDistRowsMatchesSqDist(t *testing.T) {
	r := rng.NewSeeded(412)
	for _, w := range []int{1, 2, 3, 7, 8, 9, 16, 60, 96} {
		for _, rows := range []int{0, 1, 5, 256, 257, 600} {
			block := randFloats(r, rows*w, 8)
			q := randFloats(r, w, 8)
			dst := make([]float64, rows)
			SqDistRows(dst, block, q)
			for j, got := range dst {
				row := block[j*w : (j+1)*w]
				if want := sqDistScalar(q, row); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s w=%d row %d/%d: %v, scalar reference %v", ActiveKernel(), w, j, rows, got, want)
				}
				if pair := SqDist(row, q); math.Float64bits(got) != math.Float64bits(pair) {
					t.Fatalf("%s w=%d row %d/%d: %v, SqDist %v", ActiveKernel(), w, j, rows, got, pair)
				}
			}
		}
	}
}
