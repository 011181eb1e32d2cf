package hnsw

// Bulk construction, and the linking code Delete's repair shares with it.
//
// Inserting one point is three steps: beam-search the graph for the
// point's neighborhood on every layer it lives on, write its out-lists
// with the diversity heuristic, and add the point to each chosen
// neighbor's list, re-pruning lists that overflow. Only the last step
// writes to nodes other points can see.
//
// Build therefore inserts in batches. Every point of a batch searches the
// same quiescent graph — the one the previous batches left — so the
// searches run in parallel with no locks, no neighbor copies and one
// blocked distance call per hop, and each writes only its own node. The
// backlinks of the whole batch are then sorted by (target, source) and
// merged one target at a time, again in parallel, since two targets share
// no list. Which worker handles which point or target changes nothing:
// the graph is a function of (seed, vectors) alone, at any GOMAXPROCS.
//
// The price is that batch-mates do not see each other, so a batch is kept
// to a fixed small share of the graph built so far (and to single points
// while the graph is tiny). The schedule depends on n only.

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"ppanns/internal/par"
	"ppanns/internal/rng"
)

// batchShare bounds a batch to 1/batchShare of the nodes already linked.
const batchShare = 16

// Build constructs a graph over vectors in one seed-deterministic parallel
// pass: vector i receives graph id i, every level is drawn up front from
// cfg.Seed in id order, and the points are linked in fixed-schedule
// batches across GOMAXPROCS workers.
// The result — adjacency, entry point, Save bytes — does not depend on
// the worker count. Scratch lives for the duration of the call only.
func Build(vectors [][]float64, cfg Config) (*Graph, error) {
	n := len(vectors)
	g, err := newGraph(cfg, n)
	if err != nil || n == 0 {
		return g, err
	}
	for i, v := range vectors {
		if len(v) != g.cfg.Dim {
			return nil, fmt.Errorf("hnsw: vector %d has dim %d, want %d", i, len(v), g.cfg.Dim)
		}
		g.data.Append(v)
	}
	g.nodes = g.carveNodes(drawLevels(g.cfg.Seed, g.mL, n))
	g.size = n

	ctxs := make([]*searchCtx, min(runtime.GOMAXPROCS(0), n))
	for i := range ctxs {
		ctxs[i] = newSearchCtx()
		ctxs[i].vis.Grow(n)
	}
	for lo := 0; lo < n; {
		hi := min(lo+max(1, lo/batchShare), n)
		g.insertBatch(ctxs, lo, hi)
		lo = hi
	}
	return g, nil
}

// drawLevels draws n levels, in id order, from the stream cfg.Seed fixes:
// floor(−ln(U)·mL), the paper's level distribution.
func drawLevels(seed uint64, mL float64, n int) []int {
	r := rng.NewSeeded(seed ^ 0x9e37)
	levels := make([]int, n)
	for i := range levels {
		u := r.Float64()
		if u == 0 {
			u = 1e-18
		}
		levels[i] = int(-math.Log(u) * mL)
	}
	return levels
}

// maxLinks is the adjacency cap of a layer.
func (g *Graph) maxLinks(layer int) int {
	if layer == 0 {
		return g.cfg.MMax0
	}
	return g.cfg.M
}

// carveNodes lays out one node per level with every adjacency list empty
// and carved, at its layer's full capacity, from a single arena — so a
// bulk build allocates three slices instead of several per node, and lists
// grow in place up to their cap.
func (g *Graph) carveNodes(levels []int) []node {
	layers, links := 0, 0
	for _, lv := range levels {
		layers += lv + 1
		links += g.cfg.MMax0 + lv*g.cfg.M
	}
	heads := make([][]int32, layers)
	arena := make([]int32, links)
	nodes := make([]node, len(levels))
	for i, lv := range levels {
		nb := heads[: lv+1 : lv+1]
		heads = heads[lv+1:]
		for l := range nb {
			c := g.maxLinks(l)
			nb[l] = arena[:0:c]
			arena = arena[c:]
		}
		nodes[i] = node{neighbors: nb, level: lv}
	}
	return nodes
}

// insertBatch links nodes [lo,hi) — already materialized, with levels set
// and empty lists — into the graph. The caller owns the graph outright
// and supplies one scratch context per worker, each with a visited set
// covering every node. Every unit of parallel work writes one node only —
// its own in the search phase, its target in the merge phase.
func (g *Graph) insertBatch(ctxs []*searchCtx, lo, hi int) {
	if g.entry < 0 {
		g.entry, g.maxLevel = lo, g.nodes[lo].level
		lo++
	}
	entry, top := g.entry, g.maxLevel

	// Search and out-lists: reads the graph below lo, writes node id only.
	par.Spans(len(ctxs), hi-lo, 1, func(w, a, _ int) {
		g.link(ctxs[w], lo+a, entry, top)
	})

	// Backlinks, layer by layer: one key per chosen (target, source) edge,
	// sorted so each target's sources sit together in id order, then one
	// merge per target.
	keys, starts := ctxs[0].keys, ctxs[0].starts
	for l := 0; l <= top; l++ {
		keys = keys[:0]
		for id := lo; id < hi; id++ {
			for _, nb := range g.neighborsAt(id, l) {
				keys = append(keys, uint64(nb)<<32|uint64(id))
			}
		}
		slices.Sort(keys)
		starts = starts[:0]
		for i, k := range keys {
			if i == 0 || k>>32 != keys[i-1]>>32 {
				starts = append(starts, int32(i))
			}
		}
		starts = append(starts, int32(len(keys)))
		par.Spans(len(ctxs), len(starts)-1, 32, func(w, a, b int) {
			for i := a; i < b; i++ {
				g.mergeBacklinks(ctxs[w], l, keys[starts[i]:starts[i+1]])
			}
		})
	}
	ctxs[0].keys, ctxs[0].starts = keys, starts

	// Promote the entry point to the batch's tallest node, lowest id first.
	for id := lo; id < hi; id++ {
		if lv := g.nodes[id].level; lv > g.maxLevel {
			g.entry, g.maxLevel = id, lv
		}
	}
}

// link searches the graph for node id's neighborhood and writes its
// out-lists on every layer up to top; layers above top (a node taller than
// the graph) stay empty until a later node links to it.
func (g *Graph) link(ctx *searchCtx, id, entry, top int) {
	nd := &g.nodes[id]
	v := g.data.At(id)
	ep, epDist := entry, g.cfg.Distance(v, g.data.At(entry))
	for l := top; l > nd.level; l-- {
		ep, epDist = g.greedyDescend(ctx, v, ep, epDist, l)
	}
	for l := min(nd.level, top); l >= 0; l-- {
		ctx.next() // fresh visited set per layer
		res := g.searchLayer(ctx, v, ep, epDist, g.cfg.EfConstruction, l, nil)
		ctx.cand.Load(res.Items())
		ep, epDist = ctx.cand.Top().ID, ctx.cand.Top().Dist
		nd.neighbors[l] = g.selectNeighbors(ctx, nd.neighbors[l], g.cfg.M)
	}
}

// mergeBacklinks adds the sources of keys (all sharing one target, in id
// order) to the target's layer-l list. When the list overflows, sources and
// current links are ranked by distance to the target and re-selected with
// the diversity heuristic.
func (g *Graph) mergeBacklinks(ctx *searchCtx, l int, keys []uint64) {
	target := int(keys[0] >> 32)
	lst := &g.nodes[target].neighbors[l]
	maxLinks := g.maxLinks(l)
	if len(*lst)+len(keys) <= maxLinks {
		for _, k := range keys {
			*lst = append(*lst, int32(uint32(k)))
		}
		return
	}
	ids := ctx.ids[:0]
	for _, k := range keys {
		ids = append(ids, int32(uint32(k)))
	}
	ids = append(ids, *lst...)
	ctx.ids = ids
	dists := g.hopDists(ctx, g.data.At(target), ids)
	ctx.cand.Reset()
	for j, id := range ids {
		ctx.cand.Push(int(id), dists[j])
	}
	*lst = g.selectNeighbors(ctx, *lst, maxLinks)
}
