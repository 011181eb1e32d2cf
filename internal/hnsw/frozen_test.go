package hnsw

import (
	"testing"

	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
)

// listsAndPacked builds a graph over data and answers every query twice
// with the same walk: first over the layers Build links in (each slot at
// its layer's full link capacity), then over the packed CSR layers. The
// first answers are the reference the packing is held to.
func listsAndPacked(t *testing.T, data, queries [][]float64, cfg Config, k, ef int) (lists, csr [][]resultheap.Item) {
	t.Helper()
	rows, ids := column(data)
	g, _, err := buildLists(rows, ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		lists = append(lists, g.Search(q, k, ef))
	}
	g.pack()
	for _, q := range queries {
		csr = append(csr, g.Search(q, k, ef))
	}
	return lists, csr
}

func frozenTestData(n, dim int, dead ...int) (data, queries [][]float64) {
	r := rng.NewSeeded(777)
	data = make([][]float64, n)
	for i := range data {
		data[i] = rng.Gaussian(r, nil, dim)
	}
	queries = make([][]float64, 32)
	for i := range queries {
		queries[i] = rng.Gaussian(r, nil, dim)
	}
	return withDead(data, dead...), queries
}

// sameItems fails the test unless the CSR walk returned exactly what the
// list walk did: the same ids in the same order, with bit-identical
// distances.
func sameItems(t *testing.T, qi int, csr, lists []resultheap.Item) {
	t.Helper()
	if len(csr) != len(lists) {
		t.Fatalf("query %d: CSR returned %d items, lists %d", qi, len(csr), len(lists))
	}
	for i := range csr {
		if csr[i] != lists[i] {
			t.Fatalf("query %d pos %d: CSR %+v != lists %+v", qi, i, csr[i], lists[i])
		}
	}
}

// TestFrozenSearchMatchesLockedExactly is the CSR conformance test: the
// CSR walk must return the exact same ids in the exact same order, with
// bit-identical distances, as the walk over the lists it was packed from.
func TestFrozenSearchMatchesLockedExactly(t *testing.T) {
	data, queries := frozenTestData(600, 24, 3, 77, 450, 599)
	lists, csr := listsAndPacked(t, data, queries, Config{M: 8, EfConstruction: 60, Seed: 5}, 10, 40)
	for qi := range queries {
		sameItems(t, qi, csr[qi], lists[qi])
	}
}
