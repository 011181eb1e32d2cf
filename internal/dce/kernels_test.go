package dce

import (
	"math"
	"testing"
	"unsafe"

	"ppanns/internal/rng"
	"ppanns/internal/simd"
	"ppanns/internal/vec"
)

// TestStoreArenaAlignment pins the layout satellite: the record stride is
// padded to a 64-byte boundary, the arena base is cache-line aligned, so
// every record starts on a cache line; and the padding stays out of the
// file format (Save writes the compact logical layout).
func TestStoreArenaAlignment(t *testing.T) {
	for _, dim := range []int{3, 6, 13, 96} {
		r := rng.NewSeeded(uint64(433 + dim))
		k, err := KeyGen(r, dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		store := NewCiphertextStoreN(k.CiphertextDim(), 0)
		for i := 0; i < 5; i++ {
			store.AppendRecord(k.Encrypt(rng.Gaussian(r, nil, dim)))
		}
		if store.Stride()%8 != 0 {
			t.Fatalf("dim %d: stride %d not a multiple of 8 floats", dim, store.Stride())
		}
		if store.Stride() != vec.PadStride(4*store.CtDim()) {
			t.Fatalf("dim %d: stride %d, want %d", dim, store.Stride(), vec.PadStride(4*store.CtDim()))
		}
		for id := 0; id < store.Len(); id++ {
			if !aligned(store.Record(id)) {
				t.Fatalf("dim %d: record %d base not 64-byte aligned", dim, id)
			}
		}
		// The file layout is stride-free: exactly 4·ctDim floats per
		// record, round-tripping through Save and LoadStore bit-for-bit.
		back, size := saveLoad(t, store)
		if want := 8*4*store.CtDim()*store.Len() + 4; size != want {
			t.Fatalf("dim %d: saved %d bytes, want %d", dim, size, want)
		}
		for id := 0; id < store.Len(); id++ {
			a, b := store.Record(id), back.Record(id)
			for c := range a {
				if a[c] != b[c] {
					t.Fatalf("dim %d: record %d differs after raw round trip", dim, id)
				}
			}
		}
	}
}

// TestDCEKernelRegistryShape pins what ActiveKernel reports: the body that
// runs, which is avx2 exactly where simd.UseAVX2 holds — under simd's
// avx512 variant too, since this package has no 512-bit body — and scalar
// elsewhere, never avx512.
func TestDCEKernelRegistryShape(t *testing.T) {
	want := simd.Scalar
	if simd.UseAVX2() {
		want = simd.AVX2
	}
	if got := ActiveKernel(); got != want {
		t.Fatalf("ActiveKernel() = %q under simd.Kernel() = %q, want %q", got, simd.Kernel(), want)
	}
	if ActiveKernel() == simd.AVX2 && !simd.HasAVX2() {
		t.Fatalf("ActiveKernel() = avx2 without usable AVX2")
	}
}

// TestDCEPublicSurfaceMatchesScalar drives the public comparison surface —
// DistanceComp on two records, CiphertextStore.DistanceComp and the
// cross-store distanceCompHalves — on the variant this process runs and
// holds each to the scalar reference bit for bit. The forced-scalar CI leg
// runs it on the other variant.
func TestDCEPublicSurfaceMatchesScalar(t *testing.T) {
	_, store, _, _, tq := storeWorld(t, 13, 9)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"records", DistanceComp(store.Record(1), store.Record(6), tq), scalarComp(store, 1, 6, tq)},
		{"store", store.DistanceComp(3, 5, tq), scalarComp(store, 3, 5, tq)},
		{"halves", distanceCompHalves(store.o12(2), store.p34(8), tq.Q), scalarComp(store, 2, 8, tq)},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s on %s: %v, scalar reference %v", c.name, ActiveKernel(), c.got, c.want)
		}
	}
}

// scalarComp is distCompScalar on the store's records o and p.
func scalarComp(s *CiphertextStore, o, p int, tq *Trapdoor) float64 {
	d := len(tq.Q)
	o12, p34 := s.o12(o), s.p34(p)
	return distCompScalar(o12[:d], o12[d:], p34[:d], p34[d:], tq.Q)
}

// TestDistanceCompEntryPointsBitIdentical is the property test of the three
// comparison entry points: across random dimensions (odd and even, so
// ciphertext strides vary) and random record pairs, each must return the
// scalar reference's value bit for bit — not approximately: the refine
// heap must order candidates the same way whichever entry point compares
// them — and the sign must answer the plaintext comparison.
func TestDistanceCompEntryPointsBitIdentical(t *testing.T) {
	r := rng.NewSeeded(321)
	for _, dim := range []int{2, 3, 7, 16, 31, 96} {
		key, err := KeyGen(r, dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		const n = 24
		vecs := make([][]float64, n)
		store := NewCiphertextStoreN(key.CiphertextDim(), n)
		for i := range vecs {
			vecs[i] = rng.Gaussian(r, nil, dim)
			copy(store.Record(i), key.Encrypt(vecs[i]))
		}
		q := rng.Gaussian(r, nil, dim)
		tq := key.TrapGen(q)
		for o := 0; o < n; o += 3 {
			for i := 0; i < n; i++ {
				p := (i * 7) % n
				want := scalarComp(store, o, p, tq)
				for name, got := range map[string]float64{
					"records": DistanceComp(store.Record(o), store.Record(p), tq),
					"store":   store.DistanceComp(o, p, tq),
					"halves":  distanceCompHalves(store.o12(o), store.p34(p), tq.Q),
				} {
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("dim=%d o=%d p=%d: %s = %v, scalar reference %v", dim, o, p, name, got, want)
					}
				}
				if do, dp := vec.SqDist(vecs[o], q), vec.SqDist(vecs[p], q); o != p && (want < 0) != (do < dp) {
					t.Fatalf("dim=%d o=%d p=%d: comparison %v, distances %v vs %v", dim, o, p, want, do, dp)
				}
			}
		}
	}
}

// aligned reports whether the slice's base address sits on a 64-byte
// cache-line boundary, the arena allocation contract.
func aligned(s []float64) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(s)))%64 == 0
}
