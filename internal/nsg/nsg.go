// Package nsg implements a navigating spreading-out graph in the style of
// Fu et al. (the paper's reference [9]) — the alternative proximity graph
// Section V-A says can replace HNSW under the privacy-preserving index.
//
// Construction follows the NSG recipe: an approximate kNN graph seeds the
// candidate pools, edges are selected with the MRNG occlusion rule from a
// navigating node (the medoid), and a spanning traversal guarantees every
// vertex stays reachable. Search is a beam walk from the navigating node.
// The graph is an immutable value (NSG is a batch-built index): Build packs
// it into CSR form, and nothing writes to it after.
//
// The graph serves the Section V-A index ablation (internal/bench), which
// builds it over SAP ciphertexts beside the serving backends.
package nsg

import (
	"fmt"
	"runtime"
	"sync"

	"ppanns/internal/epochset"
	"ppanns/internal/hnsw"
	"ppanns/internal/par"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// Config parameterizes construction.
type Config struct {
	// R is the maximum out-degree (default 32).
	R int
	// L is the candidate pool size per node during construction
	// (default 128).
	L int
	// KNN is the neighbor count of the seeding kNN graph (default 48).
	KNN int
	// Seed drives the auxiliary kNN construction.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.R <= 0 {
		c.R = 32
	}
	if c.L <= 0 {
		c.L = 128
	}
	if c.KNN <= 0 {
		c.KNN = 48
	}
	return c
}

// Graph is a built NSG index. Nothing writes to it after construction, so
// any number of searches run on it concurrently.
type Graph struct {
	cfg  Config
	dim  int
	data *vec.Dataset
	nav  int // navigating node (medoid)

	// adj is the per-vertex adjacency construction works on. Build packs
	// it into CSR form and drops it: vertex id's neighbors are
	// nbrs[offs[id]:offs[id+1]], so the beam search walks one contiguous
	// array with one blocked distance call per hop.
	adj  [][]int32
	offs []int32
	nbrs []int32

	ctxPool sync.Pool
}

// neighbors returns vertex id's adjacency list.
func (g *Graph) neighbors(id int) []int32 { return g.nbrs[g.offs[id]:g.offs[id+1]] }

// Build constructs the graph over vectors, giving vector i vertex id i.
// Every row must be a vector of one dimension.
func Build(vectors [][]float64, cfg Config) (*Graph, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("nsg: empty data")
	}
	dim := len(vectors[0])
	for i, v := range vectors {
		if len(v) == 0 || len(v) != dim {
			return nil, fmt.Errorf("nsg: row %d has %d coordinates, row 0 has %d", i, len(v), dim)
		}
	}
	n := len(vectors)
	g := &Graph{
		cfg:  cfg.withDefaults(),
		dim:  dim,
		data: vec.NewDataset(dim, n),
		adj:  make([][]int32, n),
	}
	for _, v := range vectors {
		g.data.Append(v)
	}
	if err := g.link(vectors); err != nil {
		return nil, err
	}
	g.offs, g.nbrs = vec.FlattenCSR(g.adj)
	g.adj = nil
	return g, nil
}

// link runs the NSG construction.
func (g *Graph) link(vectors [][]float64) error {
	// Step 1: approximate kNN pools via an auxiliary HNSW.
	aux, err := hnsw.Build(vec.DatasetFromSlices(vectors), nil, hnsw.Config{M: 16, EfConstruction: 2 * g.cfg.L, Seed: g.cfg.Seed})
	if err != nil {
		return err
	}
	g.nav = medoid(vectors)

	// Step 2: per-node candidate pools + MRNG pruning (parallel; every node
	// writes its own list only).
	par.Spans(runtime.GOMAXPROCS(0), len(vectors), 16, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			pool := aux.Search(vectors[i], g.cfg.L, 2*g.cfg.L)
			cands := pool[:0]
			for _, it := range pool {
				if it.ID != i {
					cands = append(cands, it)
				}
			}
			g.adj[i] = g.occlusionPrune(vectors[i], cands, g.cfg.R)
		}
	})

	// Step 3: NSG refinement — rebuild every node's pool from the set of
	// nodes *visited* while searching the current graph from the
	// navigating node (this is what plants the long-range edges the MRNG
	// rule then thins), merged with the kNN pool, and re-prune. A second
	// pass runs over the improved graph, whose longer edges widen the
	// visited pools further.
	g.refineFromNavigator(vectors, aux)
	g.insertReverseEdges()
	g.refineFromNavigator(vectors, aux)

	// Step 4: reverse-edge insertion — for every selected edge (u, v) try
	// to add (v, u), re-pruning v's list with the occlusion rule when it
	// overflows. This is what makes the spread-out graph navigable in both
	// directions.
	g.insertReverseEdges()

	// Step 5: connectivity — span unreachable vertices from the
	// navigating node by attaching them to their nearest reached vertex.
	g.ensureReachable()
	return nil
}

// refineFromNavigator replaces each node's adjacency with an
// occlusion-pruned selection over {nodes visited during a beam search
// nav→v} ∪ {the kNN pool}, following the NSG construction.
func (g *Graph) refineFromNavigator(vectors [][]float64, aux *hnsw.Graph) {
	n := len(vectors)
	frozen := make([][]int32, n)
	for i, lst := range g.adj {
		frozen[i] = append([]int32(nil), lst...)
	}
	workers := runtime.GOMAXPROCS(0)
	visited := make([][]bool, workers)
	beams := make([]resultheap.Pool, workers)
	par.Spans(workers, n, 16, func(w, lo, hi int) {
		if visited[w] == nil {
			visited[w] = make([]bool, n)
		}
		seen := visited[w]
		for i := lo; i < hi; i++ {
			pool := g.collectVisited(&beams[w], frozen, vectors[i], seen)
			// Merge the kNN pool (closest candidates) back in.
			for _, it := range aux.Search(vectors[i], g.cfg.KNN, g.cfg.L) {
				if !seen[it.ID] {
					seen[it.ID] = true
					pool = append(pool, it)
				}
			}
			for _, it := range pool {
				seen[it.ID] = false
			}
			filtered := pool[:0]
			for _, it := range pool {
				if it.ID != i {
					filtered = append(filtered, it)
				}
			}
			sortItems(filtered)
			g.adj[i] = g.occlusionPrune(vectors[i], filtered, g.cfg.R)
		}
	})
}

// collectVisited beam-searches the frozen graph from the navigating node
// towards q, over beam with width L, and returns every node whose distance
// was evaluated. The visited scratch must be all-false on entry and is
// reset via the returned pool by the caller.
func (g *Graph) collectVisited(beam *resultheap.Pool, frozen [][]int32, q []float64, visited []bool) []resultheap.Item {
	var pool []resultheap.Item
	mark := func(id int, d float64) {
		visited[id] = true
		pool = append(pool, resultheap.Item{ID: id, Dist: d})
	}
	d0 := vec.SqDist(q, g.data.At(g.nav))
	mark(g.nav, d0)
	beam.Reset()
	beam.Offer(int32(g.nav), d0, g.cfg.L)
	for {
		c, ok := beam.Expand()
		if !ok {
			break
		}
		for _, nb := range frozen[c] {
			id := int(nb)
			if visited[id] {
				continue
			}
			d := vec.SqDist(q, g.data.At(id))
			mark(id, d)
			beam.Offer(nb, d, g.cfg.L)
		}
	}
	return pool
}

// insertReverseEdges adds v→u for every u→v, occlusion-pruning overflowing
// lists back down to R.
func (g *Graph) insertReverseEdges() {
	n := len(g.adj)
	incoming := make([][]int32, n)
	for u, lst := range g.adj {
		for _, v := range lst {
			incoming[v] = append(incoming[v], int32(u))
		}
	}
	for v := 0; v < n; v++ {
		if len(incoming[v]) == 0 {
			continue
		}
		present := make(map[int32]bool, len(g.adj[v]))
		for _, nb := range g.adj[v] {
			present[nb] = true
		}
		changed := false
		for _, u := range incoming[v] {
			if int(u) != v && !present[u] {
				g.adj[v] = append(g.adj[v], u)
				present[u] = true
				changed = true
			}
		}
		if !changed || len(g.adj[v]) <= g.cfg.R {
			continue
		}
		// Re-prune with the occlusion rule over the merged list.
		base := g.data.At(v)
		items := make([]resultheap.Item, 0, len(g.adj[v]))
		for _, nb := range g.adj[v] {
			items = append(items, resultheap.Item{ID: int(nb), Dist: vec.SqDist(base, g.data.At(int(nb)))})
		}
		sortItems(items)
		g.adj[v] = g.occlusionPrune(base, items, g.cfg.R)
	}
}

// sortItems sorts ascending by distance (insertion sort; lists are short).
func sortItems(items []resultheap.Item) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].Dist < items[j-1].Dist; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

// medoid returns the id whose vector is closest to the mean.
func medoid(vectors [][]float64) int {
	mean := make([]float64, len(vectors[0]))
	for _, v := range vectors {
		vec.Add(mean, mean, v)
	}
	vec.Scale(mean, 1/float64(len(vectors)), mean)
	best, bestD := 0, vec.SqDist(vectors[0], mean)
	for i, v := range vectors[1:] {
		if d := vec.SqDist(v, mean); d < bestD {
			best, bestD = i+1, d
		}
	}
	return best
}

// occlusionPrune applies the MRNG edge rule: candidate c (ascending by
// distance) is kept iff no already-kept edge r satisfies
// dist(c, r) < dist(c, base).
func (g *Graph) occlusionPrune(base []float64, cands []resultheap.Item, r int) []int32 {
	out := make([]int32, 0, r)
	for _, c := range cands {
		if len(out) >= r {
			break
		}
		cv := g.data.At(c.ID)
		keep := true
		for _, sel := range out {
			if vec.SqDist(cv, g.data.At(int(sel))) < c.Dist {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, int32(c.ID))
		}
	}
	return out
}

// ensureReachable BFSes from the navigating node, then attaches each
// unreached vertex to its nearest reached neighbor (bidirectionally).
func (g *Graph) ensureReachable() {
	reached := make([]bool, len(g.adj))
	queue := []int{g.nav}
	reached[g.nav] = true
	var order []int
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		order = append(order, cur)
		for _, nb := range g.adj[cur] {
			if !reached[nb] {
				reached[nb] = true
				queue = append(queue, int(nb))
			}
		}
	}
	for i := range g.adj {
		if reached[i] {
			continue
		}
		// Attach to the closest vertex in BFS order (sampled for speed on
		// large graphs).
		v := g.data.At(i)
		best, bestD := g.nav, vec.SqDist(v, g.data.At(g.nav))
		step := len(order)/512 + 1
		for j := 0; j < len(order); j += step {
			if d := vec.SqDist(v, g.data.At(order[j])); d < bestD {
				best, bestD = order[j], d
			}
		}
		g.adj[best] = append(g.adj[best], int32(i))
		g.adj[i] = append(g.adj[i], int32(best))
		reached[i] = true
		order = append(order, i)
	}
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return g.data.Len() }

// searchCtx is the pooled per-search working set: the visited set, the
// beam's candidate pool, and the gathered-neighbor buffer with its
// blocked-kernel output. Each grows by append, to what a search touched,
// never to its beam width. A warm search allocates nothing.
type searchCtx struct {
	vis    epochset.Set
	pool   resultheap.Pool
	gather []int32
	dists  []float64
}

// SearchInto appends the (approximately) k closest ids, closest first, to
// dst[:0], using beam width ef. With a recycled dst a warm search is
// allocation-free: all scratch state is pooled, and the beam walks the CSR
// adjacency with one blocked distance call per hop.
func (g *Graph) SearchInto(dst []resultheap.Item, q []float64, k, ef int) []resultheap.Item {
	if len(q) != g.dim {
		panic(fmt.Sprintf("nsg: querying %d-dim vector in %d-dim graph", len(q), g.dim))
	}
	if ef < k {
		ef = k
	}

	ctx, _ := g.ctxPool.Get().(*searchCtx)
	if ctx == nil {
		ctx = new(searchCtx)
	}
	ctx.vis.Grow(g.Len())
	ctx.vis.Next()
	defer g.ctxPool.Put(ctx)

	pool := &ctx.pool
	pool.Reset()
	pool.Offer(int32(g.nav), vec.SqDist(q, g.data.At(g.nav)), ef)
	ctx.vis.Seen(g.nav)
	gather := ctx.gather
	for {
		c, ok := pool.Expand()
		if !ok {
			break
		}
		gather = ctx.vis.Unseen(gather[:0], g.neighbors(int(c)))
		ctx.dists = g.data.SqDistBlock(ctx.dists, q, gather)
		for j, nb := range gather {
			pool.Offer(nb, ctx.dists[j], ef)
		}
	}
	ctx.gather = gather
	return pool.AppendItems(dst, k)
}
