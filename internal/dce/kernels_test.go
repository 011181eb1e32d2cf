package dce

import (
	"math"
	"testing"

	"ppanns/internal/rng"
	"ppanns/internal/simd"
	"ppanns/internal/vec"
)

// TestStoreArenaAlignment pins the layout satellite: the record stride is
// padded to a 64-byte boundary, the arena base is cache-line aligned, so
// every record starts on a cache line; and the padding stays out of the
// wire format (Raw returns the compact logical layout).
func TestStoreArenaAlignment(t *testing.T) {
	for _, dim := range []int{3, 6, 13, 96} {
		r := rng.NewSeeded(uint64(433 + dim))
		k, err := KeyGen(r, dim)
		if err != nil {
			t.Fatal(err)
		}
		store := NewCiphertextStoreN(k.CiphertextDim(), 0)
		for i := 0; i < 5; i++ {
			store.Append(k.Encrypt(rng.Gaussian(r, nil, dim)))
		}
		if store.Stride()%8 != 0 {
			t.Fatalf("dim %d: stride %d not a multiple of 8 floats", dim, store.Stride())
		}
		if store.Stride() != vec.PadStride(4*store.CtDim()) {
			t.Fatalf("dim %d: stride %d, want %d", dim, store.Stride(), vec.PadStride(4*store.CtDim()))
		}
		for id := 0; id < store.Len(); id++ {
			if !vec.Aligned(store.Record(id)) {
				t.Fatalf("dim %d: record %d base not 64-byte aligned", dim, id)
			}
		}
		// The compact wire layout is stride-free: exactly 4·ctDim floats per
		// record, round-tripping through StoreFromRaw bit-for-bit.
		raw := store.Raw()
		if len(raw) != 4*store.CtDim()*store.Len() {
			t.Fatalf("dim %d: Raw len %d, want %d", dim, len(raw), 4*store.CtDim()*store.Len())
		}
		back, err := StoreFromRaw(store.CtDim(), append([]float64(nil), raw...), append([]bool(nil), store.LiveMask()...))
		if err != nil {
			t.Fatal(err)
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

// TestDCEKernelRegistryShape pins what ActiveKernel reports: simd's one
// variant, which is scalar or — only on a machine with AVX2 — avx2.
func TestDCEKernelRegistryShape(t *testing.T) {
	if got := ActiveKernel(); got != simd.Kernel() {
		t.Fatalf("ActiveKernel() = %q, simd.Kernel() = %q", got, simd.Kernel())
	}
	if got := ActiveKernel(); got != simd.Scalar && (got != simd.AVX2 || !simd.HasAVX2()) {
		t.Fatalf("ActiveKernel() = %q with HasAVX2() = %v", got, simd.HasAVX2())
	}
}

// TestDCEPublicSurfaceMatchesScalar drives the public comparison surface —
// DistanceCompQ, the prepared pair path and the cross-store
// DistanceCompHalves — on the variant this process runs and holds each to
// the scalar reference bit for bit. The forced-scalar CI leg runs it on
// the other variant.
func TestDCEPublicSurfaceMatchesScalar(t *testing.T) {
	_, store, _, _, tq := storeWorld(t, 13, 9)
	q := tq.Q
	d := len(q)
	ref := func(o, p int) float64 {
		o12, p34 := store.O12(o), store.P34(p)
		return distCompScalar(o12[:d], o12[d:], p34[:d], p34[d:], q)
	}
	var pq PreparedQuery
	if err := store.PrepareQuery(&pq, q); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"pair", store.DistanceCompQ(1, 6, q), ref(1, 6)},
		{"prepared", pq.Comp(3, 5), ref(3, 5)},
		{"halves", DistanceCompHalves(store.O12(2), store.P34(8), q), ref(2, 8)},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s on %s: %v, scalar reference %v", c.name, ActiveKernel(), c.got, c.want)
		}
	}
}
