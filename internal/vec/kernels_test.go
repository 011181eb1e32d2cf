package vec

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"ppanns/internal/rng"
	"ppanns/internal/simd"
)

// kernelTestDims exercises every loop shape: empty, pure tail (1..7), one
// full 8-lane group, group+tail, multiple groups, the paper's padded SIFT
// ctDim neighborhood, and a large odd size.
var kernelTestDims = []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 63, 64, 95, 96, 100, 127, 128, 208, 401, 960}

// ulpDiff returns the distance between a and b in units of last place —
// the number of representable float64s strictly between them (0 for equal
// bits, including -0 vs +0 only when compared via bits).
func ulpDiff(a, b float64) uint64 {
	ai, bi := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	// Map the sign-magnitude float ordering onto a monotone integer line.
	if ai < 0 {
		ai = math.MinInt64 - ai
	}
	if bi < 0 {
		bi = math.MinInt64 - bi
	}
	if ai > bi {
		return uint64(ai - bi)
	}
	return uint64(bi - ai)
}

// kernelULPTolerance is the documented per-variant accuracy budget. Every
// variant currently linked reproduces the scalar reference's summation
// order exactly and must match bit-for-bit (0 ULP). A future variant that
// reorders the reduction may claim up to 4 ULP, but must then also pass
// the ranking-invariance check below.
const kernelULPTolerance = 0

func randFloats(r *rng.Rand, n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (r.Float64() - 0.5) * scale
	}
	return out
}

// TestKernelVariantsBitIdentical compares every linked variant's pair and
// block kernels against the scalar reference across all loop shapes,
// deliberately misaligned slices, and padded-stride arenas with shuffled,
// duplicated ids.
func TestKernelVariantsBitIdentical(t *testing.T) {
	r := rng.NewSeeded(411)
	for _, k := range kernelVariants {
		if k.name == simd.Scalar {
			continue
		}
		t.Run(k.name, func(t *testing.T) {
			for _, dim := range kernelTestDims {
				for off := 0; off < 4; off++ {
					// Slice at an offset so the data is NOT 32-byte aligned
					// for most off values — the kernels use unaligned loads
					// and must not care.
					a := randFloats(r, dim+off, 2e3)[off:]
					b := randFloats(r, dim+off, 2e3)[off:]
					want := sqDistScalar(a, b)
					got := k.sqDist(a, b)
					if d := ulpDiff(got, want); d > kernelULPTolerance {
						t.Fatalf("sqDist dim=%d off=%d: %v vs scalar %v (%d ULP)", dim, off, got, want, d)
					}
				}
				if dim == 0 {
					continue
				}
				// Block form over a padded arena: stride > dim, ids
				// shuffled with duplicates, including the last row.
				stride := PadStride(dim)
				rows := 17
				data := AlignedFloats(stride * rows)
				for i := range data {
					data[i] = (r.Float64() - 0.5) * 2e3
				}
				q := randFloats(r, dim, 2e3)
				ids := []int32{0, 16, 3, 3, 9, 1, 16, 0, 12, 7}
				want := make([]float64, len(ids))
				got := make([]float64, len(ids))
				sqDistBlockScalar(want, data, stride, dim, q, ids)
				k.sqDistBlock(got, data, stride, dim, q, ids)
				for j := range ids {
					if d := ulpDiff(got[j], want[j]); d > kernelULPTolerance {
						t.Fatalf("sqDistBlock dim=%d id=%d: %v vs scalar %v (%d ULP)", dim, ids[j], got[j], want[j], d)
					}
				}
			}
		})
	}
}

// TestKernelRankingInvariance checks the property the refine phase
// actually depends on: sorting candidates by any variant's distances
// yields the scalar reference's order. With a 0-ULP tolerance this is
// implied, but the check is what a future >0-ULP variant must still pass.
func TestKernelRankingInvariance(t *testing.T) {
	r := rng.NewSeeded(413)
	const dim, rows = 100, 64
	stride := PadStride(dim)
	data := AlignedFloats(stride * rows)
	for i := range data {
		data[i] = (r.Float64() - 0.5) * 10
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
	sqDistBlockScalar(want, data, stride, dim, q, ids)
	wantOrder := rank(want)
	for _, k := range kernelVariants {
		got := make([]float64, rows)
		k.sqDistBlock(got, data, stride, dim, q, ids)
		for i, id := range rank(got) {
			if id != wantOrder[i] {
				t.Fatalf("%s: ranking diverges from scalar at position %d", k.name, i)
			}
		}
	}
}

// TestSetKernelDispatch forces each variant through the public dispatch
// surface and confirms SqDist/Dataset.SqDistBlock route to it with
// unchanged results; unknown names must fail without disturbing dispatch.
func TestSetKernelDispatch(t *testing.T) {
	prev := ActiveKernel()
	defer SetKernel(prev)
	r := rng.NewSeeded(417)
	a := randFloats(r, 208, 100)
	b := randFloats(r, 208, 100)
	d := NewDataset(100, 8)
	for i := 0; i < 8; i++ {
		d.Append(randFloats(r, 100, 100))
	}
	q := randFloats(r, 100, 100)
	ids := []int32{7, 0, 3, 3, 5}
	wantPair := sqDistScalar(a, b)
	wantBlock := make([]float64, len(ids))
	d.SqDistBlock(wantBlock, q, ids) // whatever is active now; all variants agree
	for _, name := range KernelVariants() {
		if err := SetKernel(name); err != nil {
			t.Fatal(err)
		}
		if got := ActiveKernel(); got != name {
			t.Fatalf("ActiveKernel = %q after SetKernel(%q)", got, name)
		}
		if got := SqDist(a, b); got != wantPair {
			t.Fatalf("%s: SqDist %v, want %v", name, got, wantPair)
		}
		gotBlock := make([]float64, len(ids))
		d.SqDistBlock(gotBlock, q, ids)
		for j := range ids {
			if gotBlock[j] != wantBlock[j] {
				t.Fatalf("%s: SqDistBlock[%d] = %v, want %v", name, j, gotBlock[j], wantBlock[j])
			}
		}
	}
	if err := SetKernel("no-such-kernel"); err == nil {
		t.Fatal("SetKernel accepted an unknown variant")
	}
	if ActiveKernel() != KernelVariants()[len(KernelVariants())-1] {
		t.Fatal("failed SetKernel disturbed the active variant")
	}
}

// TestSetKernelConcurrent flips the dispatch pointer while readers hammer
// SqDist — the atomic dispatch must be race-clean (this test exists for
// the -race build) and every observed result must be one all variants
// agree on.
func TestSetKernelConcurrent(t *testing.T) {
	prev := ActiveKernel()
	defer SetKernel(prev)
	r := rng.NewSeeded(419)
	a := randFloats(r, 96, 10)
	b := randFloats(r, 96, 10)
	want := sqDistScalar(a, b)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := SqDist(a, b); got != want {
					panic(fmt.Sprintf("dispatch produced %v, want %v", got, want))
				}
			}
		}()
	}
	variants := KernelVariants()
	for i := 0; i < 200; i++ {
		if err := SetKernel(variants[i%len(variants)]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestKernelRegistryShape pins the registry invariants the dispatch code
// assumes: scalar first, present exactly once, active variant listed.
func TestKernelRegistryShape(t *testing.T) {
	names := KernelVariants()
	if len(names) == 0 || names[0] != simd.Scalar {
		t.Fatalf("variants = %v, want scalar first", names)
	}
	seen := map[string]bool{}
	active := false
	for _, n := range names {
		if seen[n] {
			t.Fatalf("variant %q registered twice", n)
		}
		seen[n] = true
		if n == ActiveKernel() {
			active = true
		}
	}
	if !active {
		t.Fatalf("active variant %q not in registry %v", ActiveKernel(), names)
	}
	if simd.HasAVX2() && !seen[simd.AVX2] {
		t.Fatal("CPU supports AVX2 but the variant is not registered")
	}
}

// TestDatasetAlignment asserts the layout contract the block kernels and
// the 64-byte satellite rely on: padded stride, cache-line-aligned base,
// and therefore aligned row starts.
func TestDatasetAlignment(t *testing.T) {
	for _, dim := range []int{1, 7, 8, 13, 96, 100, 960} {
		d := NewDataset(dim, 3)
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
			if !Aligned(d.At(i)) {
				t.Fatalf("dim %d: row %d base not 64-byte aligned", dim, i)
			}
		}
	}
	for _, n := range []int{1, 5, 8, 100} {
		if s := AlignedFloats(n); len(s) != n || !Aligned(s) {
			t.Fatalf("AlignedFloats(%d): len %d aligned %v", n, len(s), Aligned(s))
		}
	}
}

// BenchmarkSqDistKernels measures the pair kernel per variant — the
// per-kernel numbers the bench harness's regression gate tracks.
func BenchmarkSqDistKernels(b *testing.B) {
	r := rng.NewSeeded(421)
	for _, dim := range []int{96, 128, 960} {
		a := randFloats(r, dim, 100)
		c := randFloats(r, dim, 100)
		for _, k := range kernelVariants {
			b.Run(fmt.Sprintf("%s/d=%d", k.name, dim), func(b *testing.B) {
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += k.sqDist(a, c)
				}
				_ = sink
			})
		}
	}
}

// BenchmarkSqDistBlockKernels measures the block kernel per variant over a
// padded arena at the filter phase's typical candidate-block size.
func BenchmarkSqDistBlockKernels(b *testing.B) {
	r := rng.NewSeeded(423)
	for _, dim := range []int{96, 960} {
		stride := PadStride(dim)
		const rows = 256
		data := AlignedFloats(stride * rows)
		for i := range data {
			data[i] = r.Float64()
		}
		q := randFloats(r, dim, 1)
		ids := make([]int32, 64)
		for i := range ids {
			ids[i] = int32((i * 37) % rows)
		}
		dst := make([]float64, len(ids))
		for _, k := range kernelVariants {
			b.Run(fmt.Sprintf("%s/d=%d", k.name, dim), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(ids) * dim * 8))
				for i := 0; i < b.N; i++ {
					k.sqDistBlock(dst, data, stride, dim, q, ids)
				}
			})
		}
	}
}

// TestSqDistRowsMatchesSqDist: over a contiguous block, every variant's
// row distances equal the scalar reference kernel's bit for bit — on the
// inline path below eight elements, which skips dispatch on the grounds
// that every variant reduces to the sequential loop there, and on the
// dispatched path above it.
func TestSqDistRowsMatchesSqDist(t *testing.T) {
	r := rng.NewSeeded(412)
	defer SetKernel(ActiveKernel())
	for _, name := range KernelVariants() {
		if err := SetKernel(name); err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 3, 7, 8, 9, 16, 60, 96} {
			for _, rows := range []int{0, 1, 5, 256, 257, 600} {
				block := randFloats(r, rows*w, 8)
				q := randFloats(r, w, 8)
				dst := make([]float64, rows)
				SqDistRows(dst, block, q)
				for j, got := range dst {
					row := block[j*w : (j+1)*w]
					if want := sqDistScalar(q, row); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s w=%d row %d/%d: %v, scalar reference %v", name, w, j, rows, got, want)
					}
					if pair := SqDist(row, q); math.Float64bits(got) != math.Float64bits(pair) {
						t.Fatalf("%s w=%d row %d/%d: %v, SqDist %v", name, w, j, rows, got, pair)
					}
				}
			}
		}
	}
}
