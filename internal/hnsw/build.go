package hnsw

// Bulk construction.
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
// while the graph is tiny). The schedule depends on the live count only.
//
// The batches write the graph's own layers, carved with slack: each node's
// slot holds its layer's full link capacity, so its list grows in place,
// and the searches walk those layers with the query walk (Graph.descend
// and Graph.beam). Build ends by packing every layer tight.

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"ppanns/internal/par"
	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// batchShare bounds a batch to 1/batchShare of the nodes already linked.
const batchShare = 16

// Build constructs a graph over vectors in one seed-deterministic parallel
// pass: vector i receives graph id i, every level is drawn up front from
// cfg.Seed in id order, and the live points are linked in fixed-schedule
// batches across GOMAXPROCS workers. A nil vector is a dead slot: its id
// is held by a zero row that no list names. Its level is still drawn, so
// the levels of the other ids do not depend on which slots are dead.
// The result — adjacency, entry point, Save bytes — does not depend on
// the worker count. Scratch lives for the duration of the call only.
func Build(vectors [][]float64, cfg Config) (*Graph, error) {
	g, err := buildLists(vectors, cfg)
	if err != nil {
		return nil, err
	}
	g.pack()
	return g, nil
}

// buildLists lays out the graph over vectors and links every live point,
// leaving its layers unpacked.
func buildLists(vectors [][]float64, cfg Config) (*Graph, error) {
	n := len(vectors)
	g, err := newGraph(cfg, n)
	if err != nil {
		return nil, err
	}
	levels := drawLevels(g.cfg.Seed, g.mL, n)
	g.dead = make([]bool, n)
	live := make([]int32, 0, n)
	for i, v := range vectors {
		switch {
		case v == nil:
			g.data.AppendZero()
			g.dead[i] = true
			levels[i] = 0
		case len(v) != g.cfg.Dim:
			return nil, fmt.Errorf("hnsw: vector %d has dim %d, want %d", i, len(v), g.cfg.Dim)
		default:
			g.data.Append(v)
			live = append(live, int32(i))
		}
	}
	g.carve(levels)
	g.size = len(live)

	ctxs := make([]*searchCtx, min(runtime.GOMAXPROCS(0), len(live)))
	for i := range ctxs {
		ctxs[i] = new(searchCtx)
		ctxs[i].vis.Grow(n)
	}
	for lo := 0; lo < len(live); {
		hi := min(lo+max(1, lo/batchShare), len(live))
		g.insertBatch(ctxs, live[lo:hi])
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
		return 2 * g.cfg.M
	}
	return g.cfg.M
}

// carve sets every node's level and lays out one layer per level up to
// the tallest, every list empty: a node on a layer gets a slot of the
// layer's full link capacity, a node below it an empty slot.
func (g *Graph) carve(levels []int) {
	n := len(levels)
	g.levels = make([]int32, n)
	top := 0
	for id, lv := range levels {
		g.levels[id] = int32(lv)
		top = max(top, lv)
	}
	g.layers = make([]csrLayer, top+1)
	for l := range g.layers {
		offs := make([]int32, n+1)
		for id, lv := range levels {
			offs[id+1] = offs[id]
			if lv >= l {
				offs[id+1] += int32(g.maxLinks(l))
			}
		}
		ends := slices.Clone(offs[:n])
		g.layers[l] = csrLayer{offs: offs, ends: ends, nbrs: make([]int32, offs[n])}
	}
}

// pack moves every layer's lists, in id order, into exact-size arrays.
func (g *Graph) pack() {
	for l := range g.layers {
		lay := &g.layers[l]
		n := len(lay.ends)
		offs := make([]int32, n+1)
		for id := range n {
			offs[id+1] = offs[id] + int32(len(lay.neighbors(id)))
		}
		nbrs := make([]int32, offs[n])
		for id := range n {
			copy(nbrs[offs[id]:], lay.neighbors(id))
		}
		*lay = packed(offs, nbrs)
	}
}

// level is node id's top layer.
func (g *Graph) level(id int) int { return int(g.levels[id]) }

// insertBatch links the nodes ids — live, ascending, with levels set and
// empty lists — into the graph. The caller supplies one scratch context
// per worker, each with a visited set covering every node. Every unit of
// parallel work writes one node only — its own in the search phase, its
// target in the merge phase.
func (g *Graph) insertBatch(ctxs []*searchCtx, ids []int32) {
	if g.entry < 0 {
		g.entry, g.maxLevel = int(ids[0]), g.level(int(ids[0]))
		ids = ids[1:]
	}
	entry, top := g.entry, g.maxLevel

	// Search and out-lists: reads the graph linked so far, writes node id
	// only.
	par.Spans(len(ctxs), len(ids), 1, func(w, a, _ int) {
		g.link(ctxs[w], int(ids[a]), entry, top)
	})

	// Backlinks, layer by layer: one key per chosen (target, source) edge,
	// sorted so each target's sources sit together in id order, then one
	// merge per target.
	keys, starts := ctxs[0].keys, ctxs[0].starts
	for l := 0; l <= top; l++ {
		lay := &g.layers[l]
		keys = keys[:0]
		for _, id := range ids {
			for _, nb := range lay.neighbors(int(id)) {
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
		par.Spans(len(ctxs), len(starts)-1, 32, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				g.mergeBacklinks(ctxs[w], l, keys[starts[i]:starts[i+1]])
			}
		})
	}
	ctxs[0].keys, ctxs[0].starts = keys, starts

	// Promote the entry point to the batch's tallest node, lowest id first.
	for _, id := range ids {
		if lv := g.level(int(id)); lv > g.maxLevel {
			g.entry, g.maxLevel = int(id), lv
		}
	}
}

// link searches the graph for node id's neighborhood, with the query walk,
// and writes its out-lists on every layer up to top; layers above top (a
// node taller than the graph) stay empty until a later node links to it.
func (g *Graph) link(ctx *searchCtx, id, entry, top int) {
	v := g.data.At(id)
	ep, epDist := entry, vec.SqDist(v, g.data.At(entry))
	for l := top; l > g.level(id); l-- {
		ep, epDist = g.descend(ctx, v, ep, epDist, &g.layers[l])
	}
	for l := min(g.level(id), top); l >= 0; l-- {
		ctx.next() // fresh visited set per layer
		lay := &g.layers[l]
		cands := g.beam(ctx, v, ep, epDist, g.cfg.EfConstruction, lay)
		ep, epDist = int(cands[0].ID), cands[0].Dist
		lay.setList(id, g.selectNeighbors(ctx, lay.list(id), cands, g.cfg.M))
	}
}

// mergeBacklinks adds the sources of keys (all sharing one target, in id
// order) to the target's layer-l list. When the list overflows, sources and
// current links are ranked by distance to the target and re-selected with
// the diversity heuristic.
func (g *Graph) mergeBacklinks(ctx *searchCtx, l int, keys []uint64) {
	target := int(keys[0] >> 32)
	lay := &g.layers[l]
	lst := lay.list(target)
	maxLinks := g.maxLinks(l)
	if len(lst)+len(keys) <= maxLinks {
		for _, k := range keys {
			lst = append(lst, int32(uint32(k)))
		}
		lay.setList(target, lst)
		return
	}
	ids := ctx.ids[:0]
	for _, k := range keys {
		ids = append(ids, int32(uint32(k)))
	}
	ids = append(ids, lst...)
	ctx.ids = ids
	dists := g.hopDists(ctx, g.data.At(target), ids)
	pool := &ctx.pool // ranks them by binary insertion, equals in arrival order
	pool.Reset()
	for j, id := range ids {
		pool.Offer(id, dists[j], len(ids))
	}
	lay.setList(target, g.selectNeighbors(ctx, lst, pool.Cands(), maxLinks))
}

// selectNeighbors applies the diversity heuristic (HNSW Algorithm 4) to
// cands (ascending by distance to the base vector), appending at most m
// ids to dst[:0]. Candidates are read closest first, and only as many as
// the selection consumes. A candidate is kept when it is closer to the
// base than to any already-kept neighbor; when fewer than m survive, the
// closest pruned candidates fill the remaining slots
// (keepPrunedConnections). dst may be the list being replaced: cands holds
// ids by value.
func (g *Graph) selectNeighbors(ctx *searchCtx, dst []int32, cands []resultheap.Cand, m int) []int32 {
	dst = dst[:0]
	pruned := ctx.pruned[:0]
	for _, c := range cands {
		if len(dst) >= m {
			break
		}
		good := true
		cv := g.data.At(int(c.ID))
		for _, s := range dst {
			if vec.SqDist(cv, g.data.At(int(s))) < c.Dist {
				good = false
				break
			}
		}
		if good {
			dst = append(dst, c.ID)
		} else {
			pruned = append(pruned, c)
		}
	}
	for _, c := range pruned {
		if len(dst) >= m {
			break
		}
		dst = append(dst, c.ID)
	}
	ctx.pruned = pruned
	return dst
}
