package hnsw

// Frozen CSR search views.
//
// The mutable graph stores one adjacency slice per node per layer at its
// full capacity, so a walk over it chases a slice header per hop and skips
// over the unused tail of every list. Under the snapshot-publication
// serving discipline the graph a search runs against is almost always
// immutable (core never mutates a published index), so the adjacency can
// be packed once and read many times.
//
// A frozenView flattens the adjacency of one generation into CSR form —
// per layer, one offsets array plus one flat neighbor array — so the
// frozen search walks dense contiguous memory, and each hop hands its
// whole gathered neighbor list to one blocked distance kernel call.
//
// Lifecycle: the view is built lazily on the first search of a quiescent
// graph and cached behind an atomic pointer. Every mutation (Add, Delete)
// bumps the graph's generation under the exclusive lock, so a cached view
// is self-invalidating: searches use it only while its generation matches.
// Clone does not share the cache — a clone starts unfrozen and freezes on
// its own first search.
//
// Safety argument: a view is only built, and only trusted, while the
// builder/search holds the graph's read lock. Add and Delete hold the
// exclusive lock from their generation bump to their last adjacency write,
// so under the read lock the graph is quiescent and the generation is the
// one the view was built at.

import "ppanns/internal/resultheap"

// csrLayer is one layer's adjacency in compressed-sparse-row form: node
// id's neighbor list is nbrs[offs[id]:offs[id+1]].
type csrLayer struct {
	offs []int32
	nbrs []int32
}

// neighbors returns id's neighbor list at this layer (empty when the node's
// level is below the layer).
func (l *csrLayer) neighbors(id int) []int32 {
	return l.nbrs[l.offs[id]:l.offs[id+1]]
}

// frozenView is an immutable CSR snapshot of the graph at generation gen.
type frozenView struct {
	gen      uint64
	entry    int
	maxLevel int
	deleted  []bool
	layers   []csrLayer
}

// frozenViewFor returns a CSR view valid for the current generation, or nil
// when another search is building it (callers then walk the live
// adjacency). Caller must hold at least the read lock.
func (g *Graph) frozenViewFor() *frozenView {
	if g.noFreeze {
		return nil
	}
	cur := g.gen.Load()
	if v := g.view.Load(); v != nil && v.gen == cur {
		return v
	}
	// Stale or absent: rebuild. One builder at a time; concurrent searches
	// walk the live adjacency for this query instead of queueing on the
	// build.
	if !g.freezeMu.TryLock() {
		return nil
	}
	defer g.freezeMu.Unlock()
	if v := g.view.Load(); v != nil && v.gen == cur {
		return v
	}
	v := g.buildFrozenView(cur)
	g.view.Store(v)
	return v
}

// buildFrozenView flattens the adjacency into CSR form. Caller holds the
// read lock (generation cur), so plain reads of every node's state are
// safe.
func (g *Graph) buildFrozenView(cur uint64) *frozenView {
	n := len(g.nodes)
	v := &frozenView{
		gen:      cur,
		entry:    g.entry,
		maxLevel: g.maxLevel,
		deleted:  make([]bool, n),
		layers:   make([]csrLayer, g.maxLevel+1),
	}
	for i := range g.nodes {
		v.deleted[i] = g.nodes[i].deleted
	}
	for l := range v.layers {
		offs := make([]int32, n+1)
		total := int32(0)
		for i := range g.nodes {
			total += int32(len(g.neighborsAt(i, l)))
			offs[i+1] = total
		}
		nbrs := make([]int32, total)
		for i := range g.nodes {
			copy(nbrs[offs[i]:offs[i+1]], g.neighborsAt(i, l))
		}
		v.layers[l] = csrLayer{offs: offs, nbrs: nbrs}
	}
	return v
}

// frozenDescend is greedyDescend over a CSR view. Results are identical to
// the live-adjacency path — the same neighbors are evaluated with the same
// kernel in the same order.
func (g *Graph) frozenDescend(ctx *searchCtx, v *frozenView, q []float64, ep int, epDist float64, layer int) (int, float64) {
	lay := &v.layers[layer]
	for {
		improved := false
		nbrs := lay.neighbors(ep)
		dists := g.hopDists(ctx, q, nbrs)
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

// frozenSearchLayer is the layer-0 beam search over a CSR view (liveOnly
// semantics, matching what searchInto requests). Each hop gathers its
// unvisited neighbors and evaluates them with one blocked kernel call; the
// admission logic then replays in neighbor order, so heap state evolves
// exactly as in searchLayer and results are order-identical.
func (g *Graph) frozenSearchLayer(ctx *searchCtx, v *frozenView, q []float64, ep int, epDist float64, ef, layer int, allow func(int) bool) *resultheap.MaxDistHeap {
	offs, nbrs := v.layers[layer].offs, v.layers[layer].nbrs
	deleted := v.deleted
	cand, res := ctx.cand, ctx.res
	cand.Reset()
	res.Reset()
	ctx.seen(ep)
	cand.Push(ep, epDist)
	if !deleted[ep] && (allow == nil || allow(ep)) {
		res.Push(ep, epDist)
	}
	gather := ctx.buf
	for cand.Len() > 0 {
		c := cand.Pop()
		if res.Len() >= ef && c.Dist > res.Top().Dist {
			break
		}
		gather = gather[:0]
		for _, nb := range nbrs[offs[c.ID]:offs[c.ID+1]] {
			if !ctx.seen(int(nb)) {
				gather = append(gather, nb)
			}
		}
		dists := g.hopDists(ctx, q, gather)
		if allow == nil {
			for j, nb := range gather {
				id := int(nb)
				d := dists[j]
				if res.Len() < ef || d < res.Top().Dist {
					cand.Push(id, d)
					if !deleted[id] {
						res.PushBounded(id, d, ef)
					}
				}
			}
		} else {
			for j, nb := range gather {
				id := int(nb)
				d := dists[j]
				if res.Len() < ef || d < res.Top().Dist {
					cand.Push(id, d)
					if !deleted[id] && allow(id) {
						res.PushBounded(id, d, ef)
					}
				}
			}
		}
	}
	ctx.buf = gather
	return res
}
