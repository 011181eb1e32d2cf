package dce

import (
	"testing"

	"ppanns/internal/rng"
)

// TestPreparedQueryBitIdentical is the property test of the prepared-query
// layer: across random dimensions (odd and even, so ciphertext strides
// vary) and random record pairs, Comp must return bit-identical values to
// DistanceCompQ — not approximately equal: the refine heap must order
// candidates the same way whichever entry point compares them.
func TestPreparedQueryBitIdentical(t *testing.T) {
	r := rng.NewSeeded(321)
	for _, dim := range []int{2, 3, 7, 16, 31, 96} {
		key, err := KeyGen(r, dim)
		if err != nil {
			t.Fatal(err)
		}
		const n = 24
		store := NewCiphertextStoreN(key.CiphertextDim(), n)
		for i := 0; i < n; i++ {
			key.EncryptRecord(rng.Gaussian(r, nil, dim), store.Record(i))
		}
		tq := key.TrapGen(rng.Gaussian(r, nil, dim))

		var pq PreparedQuery
		if err := store.PrepareQuery(&pq, tq.Q); err != nil {
			t.Fatal(err)
		}
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32((i * 7) % n)
		}
		for o := 0; o < n; o += 3 {
			for _, id := range ids {
				want := store.DistanceCompQ(o, int(id), tq.Q)
				if got := pq.Comp(o, int(id)); got != want {
					t.Fatalf("dim=%d o=%d p=%d: Comp = %v, DistanceCompQ = %v", dim, o, id, got, want)
				}
				// And the sign agrees with the pointer-API ground truth.
				view1, view2 := CiphertextFromRecord(store.Record(o)), CiphertextFromRecord(store.Record(int(id)))
				if (DistanceComp(&view1, &view2, tq) < 0) != (want < 0) {
					t.Fatalf("dim=%d o=%d p=%d: arena and pointer kernels disagree on sign", dim, o, id)
				}
			}
		}
	}
}

func TestPrepareQueryValidatesDimension(t *testing.T) {
	r := rng.NewSeeded(322)
	key, err := KeyGen(r, 8)
	if err != nil {
		t.Fatal(err)
	}
	store := NewCiphertextStoreN(key.CiphertextDim(), 1)
	key.EncryptRecord(rng.Gaussian(r, nil, 8), store.Record(0))
	var pq PreparedQuery
	if err := store.PrepareQuery(&pq, make([]float64, key.CiphertextDim()-1)); err == nil {
		t.Fatal("expected dimension error")
	}
	if err := store.PrepareQuery(&pq, make([]float64, key.CiphertextDim())); err != nil {
		t.Fatal(err)
	}
	pq.Reset()
	if pq.store != nil || pq.q != nil {
		t.Fatal("Reset retained query material")
	}
}
