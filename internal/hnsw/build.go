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
// The lists the batches write are scratch: each node's lists are carved
// at their layer's full capacity so they grow in place, and Build packs
// them into the graph's CSR layers and drops them.

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

// builder is the scratch of one Build: the graph under construction plus
// its per-node adjacency lists, one per layer 0..level.
type builder struct {
	*Graph
	nodes [][][]int32
}

// Build constructs a graph over vectors in one seed-deterministic parallel
// pass: vector i receives graph id i, every level is drawn up front from
// cfg.Seed in id order, and the live points are linked in fixed-schedule
// batches across GOMAXPROCS workers. A nil vector is a dead slot: its id
// is held by a zero row that no list names. Its level is still drawn, so
// the levels of the other ids do not depend on which slots are dead.
// The result — adjacency, entry point, Save bytes — does not depend on
// the worker count. Scratch lives for the duration of the call only.
func Build(vectors [][]float64, cfg Config) (*Graph, error) {
	b, err := newBuilder(vectors, cfg)
	if err != nil {
		return nil, err
	}
	b.pack()
	return b.Graph, nil
}

// newBuilder lays out the graph over vectors and links every live point.
func newBuilder(vectors [][]float64, cfg Config) (*builder, error) {
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
	b := &builder{Graph: g, nodes: g.carveNodes(levels)}
	g.size = len(live)

	ctxs := make([]*searchCtx, min(runtime.GOMAXPROCS(0), len(live)))
	for i := range ctxs {
		ctxs[i] = newSearchCtx()
		ctxs[i].vis.Grow(n)
	}
	for lo := 0; lo < len(live); {
		hi := min(lo+max(1, lo/batchShare), len(live))
		b.insertBatch(ctxs, live[lo:hi])
		lo = hi
	}
	return b, nil
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

// carveNodes lays out one node per level with every adjacency list empty
// and carved, at its layer's full capacity, from a single arena — so a
// bulk build allocates three slices instead of several per node, and lists
// grow in place up to their cap.
func (g *Graph) carveNodes(levels []int) [][][]int32 {
	layers, links := 0, 0
	for _, lv := range levels {
		layers += lv + 1
		links += (2 + lv) * g.cfg.M
	}
	heads := make([][]int32, layers)
	arena := make([]int32, links)
	nodes := make([][][]int32, len(levels))
	for i, lv := range levels {
		nb := heads[: lv+1 : lv+1]
		heads = heads[lv+1:]
		for l := range nb {
			c := g.maxLinks(l)
			nb[l] = arena[:0:c]
			arena = arena[c:]
		}
		nodes[i] = nb
	}
	return nodes
}

// pack flattens the lists into the graph's CSR layers and levels.
func (b *builder) pack() {
	n := len(b.nodes)
	b.levels = make([]int32, n)
	for id, lists := range b.nodes {
		b.levels[id] = int32(len(lists) - 1)
	}
	b.layers = make([]csrLayer, b.maxLevel+1)
	for l := range b.layers {
		offs := make([]int32, n+1)
		for id := range b.nodes {
			offs[id+1] = offs[id] + int32(len(b.neighborsAt(id, l)))
		}
		nbrs := make([]int32, offs[n])
		for id := range b.nodes {
			copy(nbrs[offs[id]:], b.neighborsAt(id, l))
		}
		b.layers[l] = csrLayer{offs: offs, nbrs: nbrs}
	}
}

// level is node id's top layer.
func (b *builder) level(id int) int { return len(b.nodes[id]) - 1 }

// neighborsAt returns id's list at a layer (empty when the node's level is
// below the layer).
func (b *builder) neighborsAt(id, layer int) []int32 {
	if layer >= len(b.nodes[id]) {
		return nil
	}
	return b.nodes[id][layer]
}

// insertBatch links the nodes ids — live, ascending, with levels set and
// empty lists — into the graph. The builder supplies one scratch context
// per worker, each with a visited set covering every node. Every unit of
// parallel work writes one node only — its own in the search phase, its
// target in the merge phase.
func (b *builder) insertBatch(ctxs []*searchCtx, ids []int32) {
	if b.entry < 0 {
		b.entry, b.maxLevel = int(ids[0]), b.level(int(ids[0]))
		ids = ids[1:]
	}
	entry, top := b.entry, b.maxLevel

	// Search and out-lists: reads the graph linked so far, writes node id
	// only.
	par.Spans(len(ctxs), len(ids), 1, func(w, a, _ int) {
		b.link(ctxs[w], int(ids[a]), entry, top)
	})

	// Backlinks, layer by layer: one key per chosen (target, source) edge,
	// sorted so each target's sources sit together in id order, then one
	// merge per target.
	keys, starts := ctxs[0].keys, ctxs[0].starts
	for l := 0; l <= top; l++ {
		keys = keys[:0]
		for _, id := range ids {
			for _, nb := range b.neighborsAt(int(id), l) {
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
				b.mergeBacklinks(ctxs[w], l, keys[starts[i]:starts[i+1]])
			}
		})
	}
	ctxs[0].keys, ctxs[0].starts = keys, starts

	// Promote the entry point to the batch's tallest node, lowest id first.
	for _, id := range ids {
		if lv := b.level(int(id)); lv > b.maxLevel {
			b.entry, b.maxLevel = int(id), lv
		}
	}
}

// link searches the graph for node id's neighborhood and writes its
// out-lists on every layer up to top; layers above top (a node taller than
// the graph) stay empty until a later node links to it.
func (b *builder) link(ctx *searchCtx, id, entry, top int) {
	v := b.data.At(id)
	ep, epDist := entry, vec.SqDist(v, b.data.At(entry))
	for l := top; l > b.level(id); l-- {
		ep, epDist = b.greedyDescend(ctx, v, ep, epDist, l)
	}
	for l := min(b.level(id), top); l >= 0; l-- {
		ctx.next() // fresh visited set per layer
		res := b.searchLayer(ctx, v, ep, epDist, b.cfg.EfConstruction, l)
		ctx.cand.Load(res.Items())
		ep, epDist = ctx.cand.Top().ID, ctx.cand.Top().Dist
		b.nodes[id][l] = b.selectNeighbors(ctx, b.nodes[id][l], b.cfg.M)
	}
}

// mergeBacklinks adds the sources of keys (all sharing one target, in id
// order) to the target's layer-l list. When the list overflows, sources and
// current links are ranked by distance to the target and re-selected with
// the diversity heuristic.
func (b *builder) mergeBacklinks(ctx *searchCtx, l int, keys []uint64) {
	target := int(keys[0] >> 32)
	lst := &b.nodes[target][l]
	maxLinks := b.maxLinks(l)
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
	dists := b.hopDists(ctx, b.data.At(target), ids)
	ctx.cand.Reset()
	for j, id := range ids {
		ctx.cand.Push(int(id), dists[j])
	}
	*lst = b.selectNeighbors(ctx, *lst, maxLinks)
}

// greedyDescend walks one layer of the lists greedily towards q, returning
// the closest node found and its distance: the walk Graph.descend makes
// over the CSR layers.
func (b *builder) greedyDescend(ctx *searchCtx, q []float64, ep int, epDist float64, layer int) (int, float64) {
	for {
		improved := false
		nbrs := b.neighborsAt(ep, layer)
		dists := b.hopDists(ctx, q, nbrs)
		for j, nb := range nbrs {
			if d := dists[j]; d < epDist {
				epDist, ep = d, int(nb)
				improved = true
			}
		}
		if !improved {
			return ep, epDist
		}
	}
}

// searchLayer is the beam search of the HNSW paper (Algorithm 2) over the
// lists at one layer: starting from ep, it maintains a candidate min-heap
// and a bounded result max-heap of width ef, both reused from ctx. Each hop
// gathers its unvisited neighbors and evaluates them with one blocked
// kernel call, then replays admission in neighbor order — the walk
// Graph.beam makes over layer 0's CSR. The returned heap is ctx-owned:
// consume it before the next searchLayer call on the same ctx.
func (b *builder) searchLayer(ctx *searchCtx, q []float64, ep int, epDist float64, ef, layer int) *resultheap.MaxDistHeap {
	cand, res := ctx.cand, ctx.res
	cand.Reset()
	res.Reset()
	ctx.seen(ep)
	cand.Push(ep, epDist)
	res.Push(ep, epDist)
	gather := ctx.buf
	for cand.Len() > 0 {
		c := cand.Pop()
		if res.Len() >= ef && c.Dist > res.Top().Dist {
			break
		}
		gather = gather[:0]
		for _, nb := range b.neighborsAt(c.ID, layer) {
			if !ctx.seen(int(nb)) {
				gather = append(gather, nb)
			}
		}
		dists := b.hopDists(ctx, q, gather)
		for j, nb := range gather {
			id := int(nb)
			d := dists[j]
			if res.Len() < ef || d < res.Top().Dist {
				cand.Push(id, d)
				res.PushBounded(id, d, ef)
			}
		}
	}
	ctx.buf = gather
	return res
}

// selectNeighbors applies the diversity heuristic (HNSW Algorithm 4) to the
// candidates loaded into ctx.cand (keyed by distance to the base vector),
// appending at most m ids to dst[:0]. Candidates are drawn closest first,
// and only as many as the selection consumes. A candidate is kept when it
// is closer to the base than to any already-kept neighbor; when fewer than
// m survive, the closest pruned candidates fill the remaining slots
// (keepPrunedConnections). dst may be the list being replaced: the heap holds
// ids by value.
func (b *builder) selectNeighbors(ctx *searchCtx, dst []int32, m int) []int32 {
	dst = dst[:0]
	pruned := ctx.pruned[:0]
	for cand := ctx.cand; cand.Len() > 0 && len(dst) < m; {
		c := cand.Pop()
		good := true
		cv := b.data.At(c.ID)
		for _, s := range dst {
			if vec.SqDist(cv, b.data.At(int(s))) < c.Dist {
				good = false
				break
			}
		}
		if good {
			dst = append(dst, int32(c.ID))
		} else {
			pruned = append(pruned, c)
		}
	}
	for _, c := range pruned {
		if len(dst) >= m {
			break
		}
		dst = append(dst, int32(c.ID))
	}
	ctx.pruned = pruned
	return dst
}
