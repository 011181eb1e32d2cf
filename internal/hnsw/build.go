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
//
// Beside every list slot the build remembers two things, and pack drops
// both: the entry's distance to the list's owner, the value it was ranked
// by, and what the last selection of the list learned of the entry — kept,
// pruned by the kept entry at list position p (the first one found closer
// to it than the owner), or appended as a backlink and never checked.
// A backlink merge computes no distance to the target: a source's distance
// is the one beside the target in the source's own list (batch sources are
// never merge targets, so that list is not being written), and a member's
// is the one beside it. SqDist(a, b) and SqDist(b, a) have the same bits —
// a−b is exactly −(b−a), the lanes add in a fixed order, and every kernel
// body equals the reference — so the ranking is the one a fresh kernel
// call gives. When the list overflows, the re-selection skips the checks
// whose answers the memory holds. The pool is fed sources first, then the
// list, and keeps equal distances in arrival order, so the entries the
// last selection kept reach the new walk in their old order, with their
// old distances. For a candidate from the old list and a kept entry the
// last selection also kept: if the candidate was kept, it was checked
// against that entry and was not closer to it; if it was pruned by
// position p, it was not closer to every kept entry before p and was
// closer to the entry at p. Those answers are what the checks would
// compute again. Every other pair is computed.

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

// Build constructs a graph over the rows of data in one seed-deterministic
// parallel pass: row i receives graph id i, every level is drawn up front
// from cfg.Seed in id order, and the live points are linked in
// fixed-schedule batches across GOMAXPROCS workers. The graph keeps data
// as its rows, and live as its liveness, and never writes either. live[i]
// false makes id i a dead slot, which no list names, and whose row should
// be zero; a nil live makes every row live. A dead slot's level is still drawn, so
// the levels of the other ids do not depend on which slots are dead.
// The result — adjacency, entry point, Save bytes — does not depend on
// the worker count. Scratch lives for the duration of the call only.
func Build(data *vec.Dataset, live []bool, cfg Config) (*Graph, error) {
	g, _, err := buildLists(data, live, cfg)
	if err != nil {
		return nil, err
	}
	g.pack()
	return g, nil
}

// buildLists lays out the graph over data and links every live point,
// leaving its layers unpacked. It also returns what the linking computed.
func buildLists(data *vec.Dataset, live []bool, cfg Config) (*Graph, buildCounts, error) {
	n := data.Len()
	if live != nil && len(live) != n {
		return nil, buildCounts{}, fmt.Errorf("hnsw: liveness of %d ids for %d rows", len(live), n)
	}
	g := newGraph(cfg, data, live)
	levels := drawLevels(g.cfg.Seed, g.mL, n)
	ids := make([]int32, 0, n)
	for i := range n {
		if live != nil && !live[i] {
			levels[i] = 0
			continue
		}
		ids = append(ids, int32(i))
	}
	g.carve(levels)
	g.size = len(ids)

	ctxs := make([]*searchCtx, min(runtime.GOMAXPROCS(0), len(ids)))
	for i := range ctxs {
		ctxs[i] = new(searchCtx)
		ctxs[i].vis.Grow(n)
	}
	for lo := 0; lo < len(ids); {
		hi := min(lo+max(1, lo/batchShare), len(ids))
		g.insertBatch(ctxs, ids[lo:hi])
		lo = hi
	}
	var counts buildCounts
	for _, ctx := range ctxs {
		counts.add(ctx.counts)
	}
	return g, counts, nil
}

// buildCounts is the work a build did: the rows its walks evaluated, the
// diversity checks it computed selecting a new node's lists and
// re-selecting overflowing ones, and the re-selection checks it answered
// from the lists' memory instead. Each worker counts its own.
type buildCounts struct {
	beamRows, linkChecks, mergeChecks, mergeKnown int
}

func (c *buildCounts) add(o buildCounts) {
	c.beamRows += o.beamRows
	c.linkChecks += o.linkChecks
	c.mergeChecks += o.mergeChecks
	c.mergeKnown += o.mergeKnown
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
// layer's full link capacity, a node below it an empty slot, and the
// build's memory runs beside every slot.
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
		g.layers[l] = csrLayer{
			offs: offs, ends: ends, nbrs: make([]int32, offs[n]),
			dist: make([]float64, offs[n]), dom: make([]int32, offs[n]),
		}
	}
}

// pack moves every layer's lists, in id order, into exact-size arrays, and
// drops the build's memory.
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
	ctx.sc = ctx.exact.Bind(g.data, g.data.At(id))
	ep, epDist := entry, ctx.sc.Dist(int32(entry))
	for l := top; l > g.level(id); l-- {
		ep, epDist = g.descend(ctx, ep, epDist, &g.layers[l])
	}
	for l := min(g.level(id), top); l >= 0; l-- {
		ctx.next() // fresh visited set per layer
		lay := &g.layers[l]
		cands := g.beam(ctx, ep, epDist, g.cfg.EfConstruction, lay)
		ep, epDist = int(cands[0].ID), cands[0].Dist
		g.selectNeighbors(ctx, lay, id, cands, g.cfg.M, prior{})
	}
}

// mergeBacklinks adds the sources of keys (all sharing one target, in id
// order) to the target's layer-l list, each with the distance beside the
// target in its own list. When the list overflows, sources and current
// links are ranked by distance to the target and re-selected with the
// diversity heuristic, which the list's memory spares the checks it has
// made before.
func (g *Graph) mergeBacklinks(ctx *searchCtx, l int, keys []uint64) {
	target := int(keys[0] >> 32)
	lay := &g.layers[l]
	off, end := int(lay.offs[target]), int(lay.ends[target])
	if end+len(keys) <= int(lay.offs[target+1]) {
		for j, k := range keys {
			src := int(uint32(k))
			lay.nbrs[end+j] = int32(src)
			lay.dist[end+j] = lay.linkDist(src, target)
			lay.dom[end+j] = appendedEntry
		}
		lay.ends[target] += int32(len(keys))
		return
	}
	// The pool ranks positions in ids, sources first, then the list.
	ids := ctx.ids[:0]
	width := len(keys) + end - off
	pool := &ctx.pool // ranks by binary insertion, equals in arrival order
	pool.Reset()
	for _, k := range keys {
		src := int32(uint32(k))
		pool.Offer(int32(len(ids)), lay.linkDist(int(src), target), width)
		ids = append(ids, src)
	}
	for j := off; j < end; j++ {
		pool.Offer(int32(len(ids)), lay.dist[j], width)
		ids = append(ids, lay.nbrs[j])
	}
	ctx.ids = ids
	ctx.oldDom = append(ctx.oldDom[:0], lay.dom[off:end]...)
	g.selectNeighbors(ctx, lay, target, pool.Cands(), g.maxLinks(l), prior{ids, len(keys), ctx.oldDom})
}

// linkDist is the distance src's list holds for its link to target.
func (l *csrLayer) linkDist(src, target int) float64 {
	off := int(l.offs[src])
	for j, nb := range l.neighbors(src) {
		if int(nb) == target {
			return l.dist[off+j]
		}
	}
	panic("hnsw: a backlink whose source does not link to its target")
}

// prior is what a re-selection knows of its candidates: candidate c is
// node ids[c.ID], the merge's sources first, and ids[nsrc:] is the list
// being replaced, with dom its memory of the last selection. The zero
// prior is a fresh selection, whose candidates are the nodes c.ID.
type prior struct {
	ids  []int32
	nsrc int
	dom  []int32
}

// prunedCand is a candidate the heuristic pruned: its node, its distance
// to the owner, and the position in the new list of the kept entry found
// closer to it.
type prunedCand struct {
	dist     float64
	node, by int32
}

// selectNeighbors applies the diversity heuristic (HNSW Algorithm 4) to
// cands (ascending by distance to node id) and writes at most m of them as
// id's layer list, each with its distance and what the walk learned of it.
// Candidates are read closest first, and only as many as the selection
// consumes. A candidate is kept when it is closer to the owner than to any
// already-kept neighbor; when fewer than m survive, the closest pruned
// candidates fill the remaining slots (keepPrunedConnections). A check old
// answers (see the file comment) is not computed again. The list written
// may be one the candidates came from: cands and old hold their values by
// copy.
func (g *Graph) selectNeighbors(ctx *searchCtx, lay *csrLayer, id int, cands []resultheap.Cand, m int, old prior) {
	off := int(lay.offs[id])
	nbrs, dist, dom := lay.nbrs[off:], lay.dist[off:], lay.dom[off:]
	kept := 0
	keptOld := ctx.keptOld[:0] // per kept entry: its old position, if the old list kept it too
	pruned := ctx.pruned[:0]
	checks, known := 0, 0
	for _, c := range cands {
		if kept >= m {
			break
		}
		node, was := c.ID, int32(appendedEntry) // was: the candidate's old dom
		if old.ids != nil {
			node = old.ids[c.ID]
			if j := int(c.ID) - old.nsrc; j >= 0 {
				was = old.dom[j]
			}
		}
		by := int32(keptEntry)
		cv := g.data.At(int(node))
		for i, s := range nbrs[:kept] {
			if p := keptOld[i]; p >= 0 && was != appendedEntry {
				if was == keptEntry || p < was {
					known++ // not closer
					continue
				}
				if p == was {
					known++ // closer
					by = int32(i)
					break
				}
			}
			checks++
			if vec.SqDist(cv, g.data.At(int(s))) < c.Dist {
				by = int32(i)
				break
			}
		}
		if by != keptEntry {
			pruned = append(pruned, prunedCand{c.Dist, node, by})
			continue
		}
		nbrs[kept], dist[kept], dom[kept] = node, c.Dist, keptEntry
		p := int32(-1)
		if was == keptEntry {
			p = c.ID - int32(old.nsrc)
		}
		keptOld = append(keptOld, p)
		kept++
	}
	n := kept
	for _, c := range pruned[:min(len(pruned), m-kept)] {
		nbrs[n], dist[n], dom[n] = c.node, c.dist, c.by
		n++
	}
	lay.ends[id] = int32(off + n)
	ctx.pruned, ctx.keptOld = pruned, keptOld
	if old.ids == nil {
		ctx.counts.linkChecks += checks
	} else {
		ctx.counts.mergeChecks += checks
		ctx.counts.mergeKnown += known
	}
}
