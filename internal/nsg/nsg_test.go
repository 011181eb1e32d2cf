package nsg

import (
	"testing"

	"ppanns/internal/dataset"
	"ppanns/internal/resultheap"
)

func buildGraph(t *testing.T, n int) (*Graph, *dataset.Data) {
	t.Helper()
	d := dataset.DeepLike(n, 20, 41)
	g, err := Build(d.Train, Config{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	return g, d
}

func TestValidation(t *testing.T) {
	if _, err := Build(nil, Config{}); err == nil {
		t.Fatal("expected error for empty data")
	}
}

func TestRecall(t *testing.T) {
	g, d := buildGraph(t, 3000)
	gt := d.GroundTruth(10)
	var recall float64
	for qi, q := range d.Queries {
		items := g.SearchInto(nil, q, 10, 100)
		ids := make([]int, len(items))
		for i, it := range items {
			ids[i] = it.ID
		}
		recall += dataset.Recall(ids, gt[qi])
	}
	recall /= float64(len(d.Queries))
	if recall < 0.9 {
		t.Fatalf("NSG recall = %.3f, want ≥ 0.9", recall)
	}
}

func TestEveryVertexReachable(t *testing.T) {
	g, _ := buildGraph(t, 1200)
	n := g.Len()
	reached := make([]bool, n)
	queue := []int{g.nav}
	reached[g.nav] = true
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.neighbors(cur) {
			if !reached[nb] {
				reached[nb] = true
				count++
				queue = append(queue, int(nb))
			}
		}
	}
	if count != n {
		t.Fatalf("only %d/%d vertices reachable from the navigating node", count, n)
	}
}

func TestDegreeBounded(t *testing.T) {
	g, _ := buildGraph(t, 1000)
	if avg := float64(len(g.nbrs)) / float64(g.Len()); avg <= 1 {
		t.Fatalf("implausible average degree %f", avg)
	}
	// Connectivity repair may push a few vertices slightly over R; the
	// bulk must respect the bound.
	over := 0
	for i := range g.Len() {
		if len(g.neighbors(i)) > g.cfg.R+4 {
			over++
		}
	}
	if over > g.Len()/50 {
		t.Fatalf("%d vertices far exceed the degree bound R=%d", over, g.cfg.R)
	}
}

func TestSelfQuery(t *testing.T) {
	g, d := buildGraph(t, 800)
	hits := 0
	for i := 0; i < 100; i++ {
		items := g.SearchInto(nil, d.Train[i], 1, 50)
		if len(items) == 1 && items[0].ID == i {
			hits++
		}
	}
	if hits < 95 {
		t.Fatalf("self-query hit rate %d/100", hits)
	}
}

// TestDelete: a dead slot is not a build input — the graph is only built
// by the ablation, over every row — so a nil row is refused, as are rows of
// differing or zero dimension.
func TestDelete(t *testing.T) {
	d := dataset.DeepLike(50, 2, 41)
	for name, vectors := range map[string][][]float64{
		"nil row":      append(append([][]float64(nil), d.Train[:10]...), nil),
		"short row":    append(append([][]float64(nil), d.Train[:10]...), d.Train[10][:d.Dim-1]),
		"all nil":      make([][]float64, 4),
		"no dimension": {{}, {}},
	} {
		if _, err := Build(vectors, Config{Seed: 41}); err == nil {
			t.Errorf("%s: build succeeded", name)
		}
	}
}

func TestResultsSorted(t *testing.T) {
	g, d := buildGraph(t, 500)
	items := g.SearchInto(nil, d.Queries[1], 10, 60)
	for i := 1; i < len(items); i++ {
		if items[i].Dist < items[i-1].Dist {
			t.Fatal("results not sorted ascending")
		}
	}
}

func TestDimMismatchPanics(t *testing.T) {
	g, _ := buildGraph(t, 200)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.SearchInto(nil, make([]float64, 3), 1, 10)
}

// TestSearchIntoReusesCapacity guards the pooled hot path: a warm
// SearchInto with a recycled dst must not allocate.
func TestSearchIntoReusesCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	g, d := buildGraph(t, 500)
	var dst []resultheap.Item
	dst = g.SearchInto(dst, d.Queries[0], 10, 50) // warm pools + dst
	allocs := testing.AllocsPerRun(20, func() {
		dst = g.SearchInto(dst[:0], d.Queries[1%len(d.Queries)], 10, 50)
	})
	if allocs > 1 { // tolerate one pool refill if GC lands mid-run
		t.Fatalf("warm SearchInto allocates %.1f times per run", allocs)
	}
}
