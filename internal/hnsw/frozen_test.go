package hnsw

import (
	"testing"

	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
)

// liveSearch is the query walk over the build's lists, with greedyDescend
// and searchLayer — the walks the build runs — in place of the CSR walks.
// It masks no tombstone: no list names a dead slot, so none is reachable.
// It is the reference the CSR layers are held to.
func (b *builder) liveSearch(q []float64, k, ef int) []resultheap.Item {
	ef = max(ef, k)
	if b.size == 0 {
		return nil
	}
	ctx := newSearchCtx()
	ctx.vis.Grow(len(b.nodes))
	ctx.next()
	ep := b.entry
	epDist := b.pairDist(ctx, q, ep)
	for l := b.maxLevel; l > 0; l-- {
		ep, epDist = b.greedyDescend(ctx, q, ep, epDist, l)
	}
	ctx.next()
	items := b.searchLayer(ctx, q, ep, epDist, ef, 0).SortedInto(nil)
	return items[:min(k, len(items))]
}

// packedBuild builds and packs a graph but keeps the builder, so a test can
// walk the lists the CSR layers were packed from.
func packedBuild(t *testing.T, data [][]float64, cfg Config) *builder {
	t.Helper()
	b, err := newBuilder(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.pack()
	return b
}

func frozenTestGraph(t *testing.T, n, dim int, cfg Config, dead ...int) (*builder, [][]float64) {
	t.Helper()
	cfg.Dim = dim
	r := rng.NewSeeded(777)
	data := make([][]float64, n)
	for i := range data {
		data[i] = rng.Gaussian(r, nil, dim)
	}
	b := packedBuild(t, withDead(data, dead...), cfg)
	queries := make([][]float64, 32)
	for i := range queries {
		queries[i] = rng.Gaussian(r, nil, dim)
	}
	return b, queries
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
	b, queries := frozenTestGraph(t, 600, 24, Config{M: 8, EfConstruction: 60, Seed: 5}, 3, 77, 450, 599)
	for qi, q := range queries {
		sameItems(t, qi, b.Search(q, 10, 40), b.liveSearch(q, 10, 40))
	}
}
