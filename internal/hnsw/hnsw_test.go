package hnsw

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"ppanns/internal/frame"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// clusteredData generates a Gaussian-mixture dataset — realistic enough for
// graph quality to resemble real corpora.
func clusteredData(seed uint64, n, dim, clusters int) [][]float64 {
	r := rng.NewSeeded(seed)
	centers := make([][]float64, clusters)
	for i := range centers {
		centers[i] = rng.GaussianVec(r, dim, 5)
	}
	out := make([][]float64, n)
	for i := range out {
		c := centers[r.IntN(clusters)]
		out[i] = vec.Add(nil, c, rng.GaussianVec(r, dim, 1))
	}
	return out
}

// bruteForce returns the exact k nearest ids to q.
func bruteForce(data [][]float64, q []float64, k int, skip func(int) bool) []int {
	type pair struct {
		id int
		d  float64
	}
	var all []pair
	for i, v := range data {
		if skip != nil && skip(i) {
			continue
		}
		all = append(all, pair{i, vec.SqDist(v, q)})
	}
	sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
	if len(all) > k {
		all = all[:k]
	}
	ids := make([]int, len(all))
	for i, p := range all {
		ids[i] = p.id
	}
	return ids
}

func recallOf(got []int, want []int) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[int]bool, len(want))
	for _, id := range want {
		set[id] = true
	}
	hit := 0
	for _, id := range got {
		if set[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// column lays vectors out as Build takes them, at the dimension of the
// first non-nil row: every non-nil row, under its position as its id, so
// a nil row is an id no row holds — a record a fold dropped.
func column(vectors [][]float64) (*vec.Dataset, []int32) {
	dim := len(vectors[slices.IndexFunc(vectors, func(v []float64) bool { return v != nil })])
	rows, ids := vec.NewDataset(dim, len(vectors)), make([]int32, 0, len(vectors))
	for i, v := range vectors {
		if v != nil {
			rows.Append(v)
			ids = append(ids, int32(i))
		}
	}
	return rows, ids
}

// build is Build over column(vectors).
func build(vectors [][]float64, cfg Config) (*Graph, error) {
	rows, ids := column(vectors)
	return Build(rows, ids, cfg)
}

func buildGraph(t *testing.T, data [][]float64, cfg Config) *Graph {
	t.Helper()
	g, err := build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	g, err := Build(vec.ZeroDataset(4, 0), nil, Config{})
	if err != nil || g.Config() != (Config{M: 16, EfConstruction: 200}) {
		t.Fatalf("zero config: %v, %+v, want the defaults M=16 efConstruction=200", err, g.Config())
	}
}

func TestEmptyGraphSearch(t *testing.T) {
	g, err := Build(vec.ZeroDataset(4, 0), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Search(make([]float64, 4), 5, 10); len(res) != 0 {
		t.Fatalf("empty graph returned %d results", len(res))
	}
}

func TestSingleAndFewNodes(t *testing.T) {
	g := buildGraph(t, [][]float64{{0, 0}, {1, 1}, {5, 5}}, Config{Seed: 1})
	res := g.Search([]float64{0.9, 0.9}, 2, 10)
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 0 {
		t.Fatalf("search = %+v", res)
	}
}

func TestRecallOnClusteredData(t *testing.T) {
	const n, dim, k = 4000, 24, 10
	data := clusteredData(42, n, dim, 30)
	g := buildGraph(t, data, Config{M: 16, EfConstruction: 200, Seed: 7})
	r := rng.NewSeeded(9)
	var recall float64
	const queries = 50
	for i := 0; i < queries; i++ {
		q := vec.Add(nil, data[r.IntN(n)], rng.GaussianVec(r, dim, 0.3))
		got := g.Search(q, k, 100)
		ids := make([]int, len(got))
		for j, it := range got {
			ids[j] = it.ID
		}
		recall += recallOf(ids, bruteForce(data, q, k, nil))
	}
	recall /= queries
	if recall < 0.95 {
		t.Fatalf("recall@%d = %.3f, want ≥ 0.95", k, recall)
	}
}

func TestSearchResultsSorted(t *testing.T) {
	data := clusteredData(3, 500, 8, 5)
	g := buildGraph(t, data, Config{Seed: 2})
	q := data[17]
	res := g.Search(q, 20, 50)
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not sorted ascending by distance")
		}
	}
	if res[0].ID != 17 || res[0].Dist != 0 {
		t.Fatalf("self-query top-1 = %+v, want id 17 dist 0", res[0])
	}
}

func TestEfSearchTradeoff(t *testing.T) {
	// Larger ef must not reduce recall (on average).
	const n, dim, k = 3000, 16, 10
	data := clusteredData(5, n, dim, 20)
	g := buildGraph(t, data, Config{M: 12, EfConstruction: 150, Seed: 3})
	r := rng.NewSeeded(11)
	queries := make([][]float64, 30)
	for i := range queries {
		queries[i] = vec.Add(nil, data[r.IntN(n)], rng.GaussianVec(r, dim, 0.5))
	}
	measure := func(ef int) float64 {
		var rec float64
		for _, q := range queries {
			got := g.Search(q, k, ef)
			ids := make([]int, len(got))
			for j, it := range got {
				ids[j] = it.ID
			}
			rec += recallOf(ids, bruteForce(data, q, k, nil))
		}
		return rec / float64(len(queries))
	}
	low, high := measure(k), measure(200)
	if high < low-0.02 {
		t.Fatalf("recall fell when raising ef: ef=k %.3f vs ef=200 %.3f", low, high)
	}
	if high < 0.9 {
		t.Fatalf("recall at ef=200 = %.3f, want ≥ 0.9", high)
	}
}

// TestConcurrentBuildAndSearch: builds share nothing — each draws its own
// levels — so graphs built side by side from one seed are byte-identical,
// and each answers self-queries while the others are still building.
func TestConcurrentBuildAndSearch(t *testing.T) {
	const n, dim, builders = 2000, 12, 4
	data := clusteredData(6, n, dim, 10)
	cfg := Config{M: 12, EfConstruction: 100, Seed: 5}
	saved := make([][]byte, builders)
	hits := make([]int, builders)
	var wg sync.WaitGroup
	for w := 0; w < builders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, err := build(data, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			for i := w; i < 100*builders; i += builders {
				res := g.Search(data[i], 1, 30)
				if len(res) == 1 && vec.SqDist(g.Vector(res[0].ID), data[i]) == 0 {
					hits[w]++
				}
			}
			var buf bytes.Buffer
			e := frame.NewEncoder(&buf)
			if g.Save(e); e.Close() != nil {
				t.Error(e.Close())
			}
			saved[w] = buf.Bytes()
		}(w)
	}
	wg.Wait()
	for w := range saved {
		if !bytes.Equal(saved[w], saved[0]) {
			t.Fatalf("builder %d built a different graph than builder 0", w)
		}
		if hits[w] < 97 {
			t.Fatalf("builder %d: self-query hit rate %d/100", w, hits[w])
		}
	}
}

// withDead returns a copy of data with the rows at ids replaced by nil: the
// ids a fold leaves out of the rows it passes to Build (see column).
func withDead(data [][]float64, ids ...int) [][]float64 {
	out := append([][]float64(nil), data...)
	for _, id := range ids {
		out[id] = nil
	}
	return out
}

// TestDelete: a build over the rows left after deleting 200 ids returns
// only those rows, and its recall against the survivors' ground truth
// stays high.
func TestDelete(t *testing.T) {
	const n, dim, k = 1500, 12, 10
	data := clusteredData(7, n, dim, 10)
	r := rng.NewSeeded(13)
	deleted := map[int]bool{}
	var dead []int
	for len(deleted) < 200 {
		id := r.IntN(n)
		if !deleted[id] {
			deleted[id] = true
			dead = append(dead, id)
		}
	}
	kept := withDead(data, dead...)
	_, idOf := column(kept)
	g := buildGraph(t, kept, Config{M: 12, EfConstruction: 120, Seed: 6})
	if g.Len() != n-200 {
		t.Fatalf("Len = %d, want %d", g.Len(), n-200)
	}
	var recall float64
	const queries = 30
	for i := 0; i < queries; i++ {
		q := vec.Add(nil, data[r.IntN(n)], rng.GaussianVec(r, dim, 0.4))
		got := g.Search(q, k, 80)
		ids := make([]int, len(got))
		for j, it := range got {
			if it.ID < 0 || it.ID >= g.Len() {
				t.Fatalf("node %d returned from a graph of %d", it.ID, g.Len())
			}
			ids[j] = int(idOf[it.ID])
		}
		recall += recallOf(ids, bruteForce(data, q, k, func(i int) bool { return deleted[i] }))
	}
	recall /= queries
	if recall < 0.9 {
		t.Fatalf("recall after deleting = %.3f, want ≥ 0.9", recall)
	}
}

// TestDeleteErrors: Build refuses ids that do not fit its rows — too few,
// negative, repeated or falling — and a graph over a row whose id is not
// 0 holds that row at node 0, alone.
func TestDeleteErrors(t *testing.T) {
	rows := vec.DatasetFromSlices([][]float64{{1, 1}, {2, 2}})
	for _, ids := range [][]int32{{0}, {-1, 1}, {3, 3}, {4, 2}} {
		if _, err := Build(rows, ids, Config{Seed: 8}); err == nil {
			t.Fatalf("ids %v accepted for two rows", ids)
		}
	}
	g := buildGraph(t, [][]float64{nil, {1, 1}}, Config{Seed: 8})
	if g.Len() != 1 || g.Vector(0)[0] != 1 {
		t.Fatalf("%d nodes, node 0 holds %v", g.Len(), g.Vector(0))
	}
	if g.EntryPoint() != 0 || len(g.Neighbors(0, 0)) != 0 {
		t.Fatalf("entry %d, neighbors %v: the one node must be alone", g.EntryPoint(), g.Neighbors(0, 0))
	}
}

// TestDeleteAll: with every record deleted there is no row, and the graph
// over none is empty.
func TestDeleteAll(t *testing.T) {
	g, err := Build(vec.ZeroDataset(2, 0), []int32{}, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 {
		t.Fatalf("Len = %d, want 0", g.Len())
	}
	if res := g.Search([]float64{0, 0}, 3, 10); len(res) != 0 {
		t.Fatalf("search on an empty graph returned %d results", len(res))
	}
	if g.EntryPoint() != -1 {
		t.Fatalf("empty graph has entry point %d", g.EntryPoint())
	}
}

// TestDeleteEntryPoint: when the id the full build would enter through is
// gone, another node takes its place and searches still work — and the
// other ids keep the levels the seed drew for them.
func TestDeleteEntryPoint(t *testing.T) {
	data := clusteredData(10, 300, 8, 4)
	cfg := Config{Seed: 10}
	full := buildGraph(t, data, cfg)
	dead := full.EntryPoint()
	kept := withDead(data, dead)
	_, idOf := column(kept)
	g := buildGraph(t, kept, cfg)
	if ep := g.EntryPoint(); ep < 0 || int(idOf[ep]) == dead {
		t.Fatalf("entry node %d, the deleted id is %d", ep, dead)
	}
	for node, id := range idOf {
		if g.levels[node] != full.levels[id] {
			t.Fatalf("id %d drew level %d, %d in the full build", id, g.levels[node], full.levels[id])
		}
	}
	if res := g.Search(data[150], 5, 30); len(res) != 5 {
		t.Fatalf("search returned %d results", len(res))
	}
}

func TestStats(t *testing.T) {
	data := clusteredData(12, 1000, 8, 8)
	g := buildGraph(t, data, Config{M: 10, Seed: 12})
	st := g.Stats()
	if st.Nodes != 1000 {
		t.Fatalf("Stats nodes=%d", st.Nodes)
	}
	if st.Edges == 0 || st.AvgDegree <= 1 {
		t.Fatalf("implausible graph shape: %+v", st)
	}
	if st.AvgDegree > float64(2*10) {
		t.Fatalf("layer-0 degree %f exceeds the layer-0 cap 2·M", st.AvgDegree)
	}
	g = buildGraph(t, withDead(data, 3), Config{M: 10, Seed: 12})
	if st = g.Stats(); st.Nodes != 999 {
		t.Fatalf("Stats nodes=%d with one id deleted", st.Nodes)
	}
}

func TestLevelDistribution(t *testing.T) {
	counts := map[int]int{}
	for _, lv := range drawLevels(13, 1/math.Log(16), 20000, nil) {
		counts[lv]++
	}
	// P(level ≥ 1) = e^(−1/mL·1)… with mL = 1/ln(M): P(level≥1) = 1/M.
	frac := float64(20000-counts[0]) / 20000
	want := 1.0 / 16
	if math.Abs(frac-want) > 0.02 {
		t.Fatalf("P(level≥1) = %.4f, want ≈ %.4f", frac, want)
	}
}

func TestDimMismatchPanics(t *testing.T) {
	g := buildGraph(t, [][]float64{{0, 0}}, Config{Seed: 14})
	for name, fn := range map[string]func(){
		"Search":     func() { g.Search([]float64{1, 2, 3}, 1, 1) },
		"SearchInto": func() { g.SearchInto(nil, []float64{1}, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGraphConnectivity(t *testing.T) {
	// Every node must be reachable from the entry point on layer 0, and
	// every list must name a node.
	data := clusteredData(15, 600, 8, 5)
	var dead []int
	for i := 0; i < 50; i++ {
		dead = append(dead, i*7)
	}
	g := buildGraph(t, withDead(data, dead...), Config{M: 12, Seed: 15})
	for l := range g.layers {
		for _, nb := range g.layers[l].nbrs {
			if nb < 0 || int(nb) >= g.Len() {
				t.Fatalf("layer %d links node %d of %d", l, nb, g.Len())
			}
		}
	}
	visited := map[int]bool{g.entry: true}
	queue := []int{g.entry}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.layers[0].neighbors(cur) {
			if !visited[int(nb)] {
				visited[int(nb)] = true
				queue = append(queue, int(nb))
			}
		}
	}
	// Allow a tiny number of stranded nodes (HNSW does not guarantee
	// strong connectivity), but the overwhelming majority must be
	// reachable.
	if float64(len(visited)) < 0.98*float64(g.Len()) {
		t.Fatalf("only %d/%d nodes reachable from entry", len(visited), g.Len())
	}
}
