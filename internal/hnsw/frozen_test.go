package hnsw

import (
	"testing"

	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// liveSearch is the query walk over the live adjacency, with greedyDescend
// and searchLayer — the walks Build and Delete's repair run — in place of
// their CSR twins. It is the reference the CSR view is held to.
func (g *Graph) liveSearch(q []float64, k, ef int) []resultheap.Item {
	ef = max(ef, k)
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.entry < 0 || g.size == 0 {
		return nil
	}
	ctx := g.getCtx(len(g.nodes))
	defer g.ctxPool.Put(ctx)
	ep := g.entry
	epDist := g.pairDist(ctx, q, ep)
	for l := g.maxLevel; l > 0; l-- {
		ep, epDist = g.greedyDescend(ctx, q, ep, epDist, l)
	}
	ctx.next()
	res := g.searchLayer(ctx, q, ep, epDist, ef, 0, func(id int) bool { return !g.nodes[id].deleted })
	items := res.SortedInto(nil)
	return items[:min(k, len(items))]
}

func frozenTestGraph(t *testing.T, n, dim int, cfg Config) (*Graph, [][]float64) {
	t.Helper()
	cfg.Dim = dim
	r := rng.NewSeeded(777)
	data := make([][]float64, n)
	for i := range data {
		data[i] = rng.Gaussian(r, nil, dim)
	}
	g := buildGraph(t, data, cfg)
	queries := make([][]float64, 32)
	for i := range queries {
		queries[i] = rng.Gaussian(r, nil, dim)
	}
	return g, queries
}

// TestFrozenSearchMatchesLockedExactly is the CSR conformance test: the
// CSR walk must return the exact same ids in the exact same order, with
// bit-identical distances, as the live-adjacency walk.
func TestFrozenSearchMatchesLockedExactly(t *testing.T) {
	g, queries := frozenTestGraph(t, 600, 24, Config{M: 8, EfConstruction: 60, Seed: 5})
	// Tombstones exercise the deleted snapshot inside the view.
	for _, id := range []int{3, 77, 450, 599} {
		if err := g.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for qi, q := range queries {
		locked := g.liveSearch(q, 10, 40)
		frozen := g.Search(q, 10, 40)
		if g.view.Load() == nil {
			t.Fatal("search did not build a frozen view")
		}
		if len(frozen) != len(locked) {
			t.Fatalf("query %d: frozen returned %d items, locked %d", qi, len(frozen), len(locked))
		}
		for i := range frozen {
			if frozen[i].ID != locked[i].ID || frozen[i].Dist != locked[i].Dist {
				t.Fatalf("query %d pos %d: frozen (%d, %v) != locked (%d, %v)",
					qi, i, frozen[i].ID, frozen[i].Dist, locked[i].ID, locked[i].Dist)
			}
		}
	}
}

// TestFrozenSearchMatchesLockedCustomDistance covers the non-default-metric
// path, where frozen hops fall back to per-neighbor DistanceFunc calls.
func TestFrozenSearchMatchesLockedCustomDistance(t *testing.T) {
	ip := func(a, b []float64) float64 { return -vec.Dot(a, b) }
	g, queries := frozenTestGraph(t, 300, 16, Config{M: 8, EfConstruction: 60, Seed: 6, Distance: ip})
	if g.blockDist {
		t.Fatal("custom distance must disable the blocked kernel")
	}
	for qi, q := range queries {
		locked := g.liveSearch(q, 5, 30)
		frozen := g.Search(q, 5, 30)
		if len(frozen) != len(locked) {
			t.Fatalf("query %d: frozen %d items, locked %d", qi, len(frozen), len(locked))
		}
		for i := range frozen {
			if frozen[i].ID != locked[i].ID || frozen[i].Dist != locked[i].Dist {
				t.Fatalf("query %d pos %d: frozen != locked", qi, i)
			}
		}
	}
}

// TestFrozenViewInvalidation asserts the view lifecycle: built on first
// search, reused after, dropped by Delete (but not by a rejected Delete),
// rebuilt with the tombstone on the next search.
func TestFrozenViewInvalidation(t *testing.T) {
	g, queries := frozenTestGraph(t, 200, 8, Config{M: 8, EfConstruction: 40, Seed: 7})
	q := queries[0]

	if g.view.Load() != nil {
		t.Fatal("view exists before any search")
	}
	g.Search(q, 5, 20)
	v1 := g.view.Load()
	if v1 == nil {
		t.Fatal("first search did not freeze")
	}
	g.Search(q, 5, 20)
	if g.view.Load() != v1 {
		t.Fatal("a second search rebuilt the view instead of reusing it")
	}

	if err := g.Delete(1000); err == nil {
		t.Fatal("delete of an unknown id succeeded")
	}
	if g.view.Load() != v1 {
		t.Fatal("a rejected Delete dropped the view")
	}
	const id = 42
	if err := g.Delete(id); err != nil {
		t.Fatal(err)
	}
	if g.view.Load() != nil {
		t.Fatal("Delete kept the stale view")
	}
	g.Search(q, 5, 20)
	v2 := g.view.Load()
	if v2 == nil || v2 == v1 {
		t.Fatal("the search after a Delete did not rebuild the view")
	}
	if !v2.deleted[id] {
		t.Fatal("rebuilt view does not carry the tombstone")
	}
}

// TestFrozenConcurrentChurn hammers searches against concurrent deletes;
// under -race this verifies that a search never reads adjacency a Delete is
// writing, nor a view a Delete has made stale.
func TestFrozenConcurrentChurn(t *testing.T) {
	g, queries := frozenTestGraph(t, 400, 8, Config{M: 8, EfConstruction: 40, Seed: 9})
	deleted := make(map[int]bool)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := rng.NewSeeded(11)
		for len(deleted) < 60 {
			id := r.IntN(400)
			if !deleted[id] {
				_ = g.Delete(id)
				deleted[id] = true
			}
		}
	}()
	for i := 0; ; i++ {
		select {
		case <-done:
			// The quiescent graph refreezes with every tombstone.
			for _, it := range g.Search(queries[0], 5, 20) {
				if deleted[it.ID] {
					t.Fatalf("deleted id %d returned after churn", it.ID)
				}
			}
			for id := range deleted {
				if !g.view.Load().deleted[id] {
					t.Fatalf("view rebuilt after churn misses tombstone %d", id)
				}
			}
			return
		default:
			res := g.Search(queries[i%len(queries)], 5, 20)
			for _, it := range res {
				if it.ID < 0 {
					t.Fatal("invalid id")
				}
			}
		}
	}
}
