package baselines

import (
	"runtime"
	"slices"
	"testing"

	"ppanns/internal/core"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// ameWorld is a small seeded deployment plus the plaintexts it encrypts:
// n points around a few Gaussian centres, and queries perturbed from them.
type ameWorld struct {
	data, queries [][]float64
	user          *core.User
	server        *core.Server
}

func newAMEWorld(t *testing.T, seed uint64, n, dim, nq int) *ameWorld {
	t.Helper()
	r := rng.NewSeeded(seed)
	centres := make([][]float64, 6)
	for i := range centres {
		centres[i] = rng.GaussianVec(r, dim, 5)
	}
	data := make([][]float64, n)
	for i := range data {
		data[i] = vec.Add(nil, centres[r.IntN(len(centres))], rng.GaussianVec(r, dim, 1))
	}
	queries := make([][]float64, nq)
	for i := range queries {
		queries[i] = vec.Add(nil, data[r.IntN(n)], rng.GaussianVec(r, dim, 0.3))
	}
	owner, err := core.NewDataOwner(core.Params{Dim: dim, Beta: 1.0, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(data)
	if err != nil {
		t.Fatal(err)
	}
	server, err := core.NewServer(edb)
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser(owner.UserKey())
	if err != nil {
		t.Fatal(err)
	}
	return &ameWorld{data: data, queries: queries, user: user, server: server}
}

// TestHNSWAMEMatchesDCERefine: the same filter phase under two exact
// comparators gives the same ids in the same order — with pending
// tombstones, too, which the shared filter masks for both.
func TestHNSWAMEMatchesDCERefine(t *testing.T) {
	const k, kPrime = 6, 48
	w := newAMEWorld(t, 13, 600, 10, 10)
	h, err := NewHNSWAME(w.server, w.data, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{4, 77, 301} {
		if err := w.server.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for qi, q := range w.queries {
		tok, err := w.user.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.server.Search(tok, k, core.SearchOptions{KPrime: kPrime, Refine: core.RefineDCE})
		if err != nil {
			t.Fatal(err)
		}
		td, err := h.Trapdoor(q)
		if err != nil {
			t.Fatal(err)
		}
		got, comps, err := h.Search(tok, td, k, kPrime, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: AME %v, DCE %v", qi, got, want)
		}
		if comps < kPrime-1 {
			t.Fatalf("query %d: %d comparisons for %d candidates", qi, comps, kPrime)
		}
	}

	tok, err := w.user.Query(w.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	td, err := h.Trapdoor(w.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Search(tok, nil, k, kPrime, 0); err == nil {
		t.Fatal("expected error for a nil trapdoor")
	}
	if _, _, err := h.Search(tok, td, 0, kPrime, 0); err == nil {
		t.Fatal("expected error for k = 0")
	}
	if _, err := h.Trapdoor(make([]float64, 3)); err == nil {
		t.Fatal("expected error for a wrong-dimension query")
	}
	if _, err := NewHNSWAME(w.server, [][]float64{make([]float64, 3)}, 1); err == nil {
		t.Fatal("expected error for wrong-dimension data")
	}
}

// TestHNSWAMESeedFixesCiphertexts: one seed gives the same AME ciphertexts
// whether they were encrypted on one core or four.
func TestHNSWAMESeedFixesCiphertexts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	w := newAMEWorld(t, 95, 200, 6, 0)
	var want []float64
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		h, err := NewHNSWAME(w.server, w.data, 95)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, ct := range h.cts {
			for i := range ct.L {
				got = append(append(got, ct.L[i]...), ct.R[i]...)
			}
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("AME ciphertexts differ between GOMAXPROCS 1 and %d", procs)
		}
	}
}
