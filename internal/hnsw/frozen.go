package hnsw

// Frozen CSR search views.
//
// The graph stores one adjacency slice per node per layer at its full
// capacity, which is what Build and Delete's repair write into. A walk over
// it chases a slice header per hop and skips over the unused tail of every
// list. Queries run against a graph that Build or Load finished and that
// only Delete ever changes, so the adjacency is packed once and read many
// times.
//
// A frozenView flattens the adjacency into CSR form — per layer, one
// offsets array plus one flat neighbor array — so a query walks dense
// contiguous memory, and each hop hands its whole gathered neighbor list
// to one blocked distance kernel call.
//
// Lifecycle: the first search after Build, Load or a Delete builds the view
// and caches it behind an atomic pointer; Delete clears the pointer under
// the exclusive lock. A view is only built and only read while the reader
// holds the read lock, so it always describes the graph as it stands.
// Searches that race to build the first view each build one, and the first
// stored is the one they all use.

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

// frozenView is an immutable CSR snapshot of the graph.
type frozenView struct {
	entry    int
	maxLevel int
	deleted  []bool
	layers   []csrLayer
}

// frozen returns the CSR view of the graph, building it when a Delete (or
// the graph's construction) left none. Caller must hold the read lock.
func (g *Graph) frozen() *frozenView {
	if v := g.view.Load(); v != nil {
		return v
	}
	g.view.CompareAndSwap(nil, g.buildFrozenView())
	return g.view.Load()
}

// buildFrozenView flattens the adjacency into CSR form. Caller holds the
// read lock, so plain reads of every node's state are safe.
func (g *Graph) buildFrozenView() *frozenView {
	n := len(g.nodes)
	v := &frozenView{
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

// frozenDescend is greedyDescend over a CSR view: the same neighbors are
// evaluated with the same kernel in the same order.
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

// frozenSearchLayer is searchLayer over a CSR view with tombstones kept out
// of the result set, as queries need. Each hop gathers its unvisited
// neighbors and evaluates them with one blocked kernel call; the admission
// logic then replays in neighbor order, so heap state evolves exactly as in
// searchLayer.
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
