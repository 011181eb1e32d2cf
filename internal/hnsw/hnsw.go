// Package hnsw implements the Hierarchical Navigable Small World proximity
// graph (Malkov & Yashunin), the state-of-the-art k-ANNS index the paper
// builds its privacy-preserving index on (Section V-A).
//
// The implementation is complete rather than minimal: randomized level
// assignment, beam search with efConstruction during build, the diversity
// heuristic for neighbor selection, bidirectional linking with pruning, a
// seed-deterministic parallel bulk build (build.go), filtered search,
// deletion with in-neighbor repair (the maintenance procedure of Section
// V-D), and binary serialization.
//
// A graph is built once (Build or Load), may have ids tombstoned with
// Delete, and is otherwise only read: searches walk a packed CSR view of
// the adjacency (frozen.go) that Delete discards and the next search
// rebuilds.
//
// The graph is metric-agnostic: it stores opaque float64 vectors and ranks
// by a caller-supplied distance. The PP-ANNS scheme instantiates it over
// DCPE/SAP ciphertexts; the plaintext baseline instantiates it over raw
// vectors.
package hnsw

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ppanns/internal/epochset"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// DistanceFunc ranks vectors; smaller is closer. The default is squared
// Euclidean distance.
type DistanceFunc func(a, b []float64) float64

// Config holds HNSW build parameters. The paper's evaluation uses M = 40
// and EfConstruction = 600.
type Config struct {
	// Dim is the vector dimension (required).
	Dim int
	// M is the maximum number of bidirectional links per node on layers
	// above 0. Defaults to 16.
	M int
	// MMax0 is the link cap on layer 0. Defaults to 2·M.
	MMax0 int
	// EfConstruction is the beam width used while inserting. Defaults to 200.
	EfConstruction int
	// Seed drives level assignment and is independent of data.
	Seed uint64
	// Distance is the metric; defaults to vec.SqDist.
	Distance DistanceFunc
	// KeepPruned tops up a node's neighbor list with the closest pruned
	// candidates when the diversity heuristic selects fewer than M.
	// Defaults to true (set SkipKeepPruned to disable).
	SkipKeepPruned bool
}

func (c Config) withDefaults() (Config, error) {
	if c.Dim <= 0 {
		return c, fmt.Errorf("hnsw: non-positive dimension %d", c.Dim)
	}
	if c.M <= 0 {
		c.M = 16
	}
	if c.MMax0 <= 0 {
		c.MMax0 = 2 * c.M
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	if c.Distance == nil {
		c.Distance = vec.SqDist
	}
	return c, nil
}

type node struct {
	neighbors [][]int32 // one adjacency list per layer 0..level
	level     int
	deleted   bool
}

// Graph is a thread-safe HNSW index. Searches run concurrently with each
// other; Delete is exclusive.
type Graph struct {
	cfg Config
	mL  float64
	// blockDist marks the default metric, whose hops run the blocked arena
	// kernel instead of per-neighbor DistanceFunc calls.
	blockDist bool

	// mu guards everything below it. Searches, Save and the accessors hold
	// it shared for their whole duration; Delete holds it exclusively, so
	// adjacency is only ever written on a graph nobody is reading and needs
	// no per-node locks.
	mu       sync.RWMutex
	data     *vec.Dataset
	nodes    []node
	entry    int
	maxLevel int
	size     int // live (non-deleted) node count

	// view caches the CSR snapshot searches walk (see frozen.go). Delete
	// clears it; the next search rebuilds it.
	view atomic.Pointer[frozenView]

	ctxPool sync.Pool
}

// newGraph creates an empty graph with room for capHint vectors.
func newGraph(cfg Config, capHint int) (*Graph, error) {
	blockDist := cfg.Distance == nil
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Graph{
		cfg:       cfg,
		mL:        1 / math.Log(float64(cfg.M)),
		blockDist: blockDist,
		data:      vec.NewDataset(cfg.Dim, capHint),
		entry:     -1,
	}, nil
}

// Len returns the number of live (non-deleted) vectors.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.size
}

// IDs returns the number of ids ever assigned — live nodes plus tombstones.
// Ids are dense: Build numbers its vectors 0..n-1.
func (g *Graph) IDs() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// Dim returns the vector dimension.
func (g *Graph) Dim() int { return g.cfg.Dim }

// Config returns the build configuration (with defaults applied), so
// callers can construct a fresh graph with the same parameters.
func (g *Graph) Config() Config { return g.cfg }

// Vector returns the stored vector for id (also valid for deleted ids,
// whose rows remain as tombstones).
func (g *Graph) Vector(id int) []float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.data.At(id)
}

// searchCtx holds per-walk scratch state: the visited set, both beam-search
// heaps, the gathered-neighbor buffer, the blocked-kernel output, the
// drained result slice and the linking scratch. Query searches pool theirs
// across searches (after warm-up a search touches no allocator at all); a
// bulk build owns one per worker and drops them when it returns.
type searchCtx struct {
	vis   epochset.Set
	cand  *resultheap.MinDistHeap
	res   *resultheap.MaxDistHeap
	buf   []int32
	dists []float64 // blocked-kernel output, parallel to the gathered buf
	items []resultheap.Item
	// Linking scratch: the diversity heuristic's rejected candidates, a
	// backlink merge's id list, and a batch's sorted (target, source)
	// backlink keys with the start of each target's run.
	pruned []resultheap.Item
	ids    []int32
	keys   []uint64
	starts []int32
	// sc, when non-nil, supplies every candidate distance of this search
	// (SearchIntoDist — the PQ filter path). Ids passed to it are graph
	// ids. Build and repair searches always run with sc nil.
	sc vec.BlockScanner
}

func newSearchCtx() *searchCtx {
	return &searchCtx{
		cand: resultheap.NewMinDistHeap(64),
		res:  resultheap.NewMaxDistHeap(64),
	}
}

func (g *Graph) getCtx(n int) *searchCtx {
	c, _ := g.ctxPool.Get().(*searchCtx)
	if c == nil {
		c = newSearchCtx()
	}
	c.sc = nil
	c.vis.Grow(n)
	c.vis.Next()
	return c
}

// pairDist is the single-candidate distance of this search: the bound
// scanner when one is active, else the configured metric over the stored
// vector.
func (g *Graph) pairDist(ctx *searchCtx, q []float64, id int) float64 {
	if ctx.sc != nil {
		return ctx.sc.Dist(int32(id))
	}
	return g.cfg.Distance(q, g.data.At(id))
}

// hopDists fills ctx.dists with each gathered id's distance to the query:
// the bound scanner's blocked LUT scan when one is active, the blocked
// arena kernel for the default metric, or per-neighbor DistanceFunc calls.
func (g *Graph) hopDists(ctx *searchCtx, q []float64, ids []int32) []float64 {
	if ctx.sc == nil && g.blockDist {
		ctx.dists = g.data.SqDistBlock(ctx.dists, q, ids)
		return ctx.dists
	}
	if cap(ctx.dists) < len(ids) {
		ctx.dists = make([]float64, len(ids))
	} else {
		ctx.dists = ctx.dists[:len(ids)]
	}
	if ctx.sc != nil {
		ctx.sc.DistBlock(ctx.dists, ids)
	} else {
		dist := g.cfg.Distance
		for j, nb := range ids {
			ctx.dists[j] = dist(q, g.data.At(int(nb)))
		}
	}
	return ctx.dists
}

func (c *searchCtx) next() { c.vis.Next() }

func (c *searchCtx) seen(id int) bool { return c.vis.Seen(id) }

// neighborsAt returns id's live adjacency list at a layer (empty when the
// node's level is below the layer). Caller holds the lock.
func (g *Graph) neighborsAt(id, layer int) []int32 {
	nd := &g.nodes[id]
	if layer >= len(nd.neighbors) {
		return nil
	}
	return nd.neighbors[layer]
}

// greedyDescend walks one layer of the live adjacency greedily towards q,
// returning the closest node found and its distance: one blocked distance
// call per hop. Build and Delete's repair use it; queries take
// frozenDescend over the CSR view, which makes the same walk. Caller must
// hold the lock.
func (g *Graph) greedyDescend(ctx *searchCtx, q []float64, ep int, epDist float64, layer int) (int, float64) {
	for {
		improved := false
		nbrs := g.neighborsAt(ep, layer)
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

// searchLayer is the beam search of the HNSW paper (Algorithm 2) over the
// live adjacency, as Build and Delete's repair run it: starting from ep, it
// maintains a candidate min-heap and a bounded result max-heap of width ef,
// both reused from ctx. Each hop gathers its unvisited neighbors and
// evaluates them with one blocked kernel call, then replays admission in
// neighbor order — the same walk frozenSearchLayer makes over a CSR view.
// allow, when non-nil, filters result membership (traversal still passes
// through filtered nodes, so the graph stays navigable around them);
// tombstones are not filtered otherwise, and repair excludes them with
// allow. The returned heap is ctx-owned: consume it before the next
// searchLayer call on the same ctx. Caller must hold the lock; nothing
// here takes another.
func (g *Graph) searchLayer(ctx *searchCtx, q []float64, ep int, epDist float64, ef, layer int, allow func(int) bool) *resultheap.MaxDistHeap {
	cand, res := ctx.cand, ctx.res
	cand.Reset()
	res.Reset()
	ctx.seen(ep)
	cand.Push(ep, epDist)
	if allow == nil || allow(ep) {
		res.Push(ep, epDist)
	}
	gather := ctx.buf
	for cand.Len() > 0 {
		c := cand.Pop()
		if res.Len() >= ef && c.Dist > res.Top().Dist {
			break
		}
		gather = gather[:0]
		for _, nb := range g.neighborsAt(c.ID, layer) {
			if !ctx.seen(int(nb)) {
				gather = append(gather, nb)
			}
		}
		dists := g.hopDists(ctx, q, gather)
		for j, nb := range gather {
			id := int(nb)
			d := dists[j]
			if res.Len() < ef || d < res.Top().Dist {
				cand.Push(id, d)
				if allow == nil || allow(id) {
					res.PushBounded(id, d, ef)
				}
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
// m survive and KeepPruned is active, the closest pruned candidates fill
// the remaining slots. dst may be the list being replaced: the heap holds
// ids by value.
func (g *Graph) selectNeighbors(ctx *searchCtx, dst []int32, m int) []int32 {
	dst = dst[:0]
	pruned := ctx.pruned[:0]
	dist := g.cfg.Distance
	for cand := ctx.cand; cand.Len() > 0 && len(dst) < m; {
		c := cand.Pop()
		good := true
		cv := g.data.At(c.ID)
		for _, s := range dst {
			if dist(cv, g.data.At(int(s))) < c.Dist {
				good = false
				break
			}
		}
		if good {
			dst = append(dst, int32(c.ID))
		} else if !g.cfg.SkipKeepPruned {
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

// Search returns the ids of the (approximately) k closest live vectors to
// q, closest first, exploring with beam width ef (ef is raised to k when
// smaller). It is the HNSW search of the paper's filter phase.
func (g *Graph) Search(q []float64, k, ef int) []resultheap.Item {
	return g.searchInto(nil, q, k, ef, nil, nil)
}

// SearchInto is Search appending the results into dst (reusing its
// capacity). With a recycled dst the whole search is allocation-free after
// the context pool has warmed up.
func (g *Graph) SearchInto(dst []resultheap.Item, q []float64, k, ef int) []resultheap.Item {
	return g.searchInto(dst, q, k, ef, nil, nil)
}

// SearchFiltered is Search restricted to ids accepted by allow (nil accepts
// all). Deleted nodes are always excluded.
func (g *Graph) SearchFiltered(q []float64, k, ef int, allow func(int) bool) []resultheap.Item {
	return g.searchInto(nil, q, k, ef, allow, nil)
}

// SearchIntoDist is SearchInto with every candidate distance supplied by sc
// instead of computed from the stored vectors — the compressed (PQ) filter
// path. Traversal order, heap admission and result ranking all run on the
// scanner's distances; the graph structure is walked unchanged. Ids passed
// to sc are graph ids.
func (g *Graph) SearchIntoDist(dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item {
	return g.searchInto(dst, q, k, ef, nil, sc)
}

func (g *Graph) searchInto(dst []resultheap.Item, q []float64, k, ef int, allow func(int) bool, sc vec.BlockScanner) []resultheap.Item {
	if len(q) != g.cfg.Dim {
		panic(fmt.Sprintf("hnsw: searching %d-dim query in %d-dim graph", len(q), g.cfg.Dim))
	}
	if ef < k {
		ef = k
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.entry < 0 || g.size == 0 {
		return dst[:0]
	}
	ctx := g.getCtx(len(g.nodes))
	ctx.sc = sc
	defer func() {
		ctx.sc = nil // don't pin the scanner's arenas through the pool
		g.ctxPool.Put(ctx)
	}()

	v := g.frozen()
	ep := v.entry
	epDist := g.pairDist(ctx, q, ep)
	for l := v.maxLevel; l > 0; l-- {
		ep, epDist = g.frozenDescend(ctx, v, q, ep, epDist, l)
	}
	ctx.next()
	res := g.frozenSearchLayer(ctx, v, q, ep, epDist, ef, 0, allow)
	ctx.items = res.SortedInto(ctx.items)
	items := ctx.items
	if len(items) > k {
		items = items[:k]
	}
	return append(dst[:0], items...)
}

// Delete removes id from the graph following Section V-D: the node is
// tombstoned, its out-edges dropped, and every in-neighbor is repaired by
// re-running neighbor selection over a fresh search so the graph stays
// navigable. Returns an error for unknown or already-deleted ids.
//
// A tombstone keeps its row and its id but not its level: it falls to
// level 0 with an empty list, so "every node's level is at most maxLevel"
// holds after the entry point is re-seated below it — the invariant Load
// checks, which a tombstone that kept its level used to break.
func (g *Graph) Delete(id int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.nodes) {
		return fmt.Errorf("hnsw: delete of unknown id %d", id)
	}
	nd := &g.nodes[id]
	if nd.deleted {
		return fmt.Errorf("hnsw: id %d already deleted", id)
	}
	// Drop the cached view — after validation, so a rejected delete does
	// not force the next search into a spurious rebuild.
	g.view.Store(nil)
	nd.deleted = true
	g.size--

	// Collect in-neighbors per layer and cut their edges to id.
	type affected struct{ node, layer int }
	var repairs []affected
	for nid := range g.nodes {
		other := &g.nodes[nid]
		if nid == id || other.deleted {
			continue
		}
		for l, lst := range other.neighbors {
			for i, nb := range lst {
				if int(nb) == id {
					other.neighbors[l] = append(lst[:i], lst[i+1:]...)
					repairs = append(repairs, affected{node: nid, layer: l})
					break
				}
			}
		}
	}
	// Drop the out-edges and the level.
	nd.level = 0
	nd.neighbors = nd.neighbors[:1:1]
	nd.neighbors[0] = nd.neighbors[0][:0]

	if g.size == 0 {
		g.entry = -1
		g.maxLevel = 0
		return nil
	}
	// Re-seat the entry point if it was the deleted node.
	if g.entry == id {
		best, bestLevel := -1, -1
		for nid := range g.nodes {
			if other := &g.nodes[nid]; !other.deleted && other.level > bestLevel {
				best, bestLevel = nid, other.level
			}
		}
		g.entry = best
		g.maxLevel = bestLevel
	}

	// Repair each in-neighbor: search around it (excluding itself) and
	// re-select a full neighbor list at the affected layer.
	ctx := g.getCtx(len(g.nodes))
	defer g.ctxPool.Put(ctx)
	for _, rep := range repairs {
		v := g.data.At(rep.node)
		ctx.next()
		allow := func(cid int) bool { return cid != rep.node && !g.nodes[cid].deleted }
		ep, epDist := g.entry, g.cfg.Distance(v, g.data.At(g.entry))
		for l := g.maxLevel; l > rep.layer; l-- {
			ep, epDist = g.greedyDescend(ctx, v, ep, epDist, l)
		}
		res := g.searchLayer(ctx, v, ep, epDist, g.cfg.EfConstruction, rep.layer, allow)
		ctx.cand.Load(res.Items())
		lst := &g.nodes[rep.node].neighbors[rep.layer]
		*lst = g.selectNeighbors(ctx, *lst, g.maxLinks(rep.layer))
	}
	return nil
}

// Neighbors returns a copy of id's adjacency list at the given layer
// (empty when the node's level is below the layer). Baselines that lay the
// graph out as PIR blocks read it through this accessor.
func (g *Graph) Neighbors(id, layer int) []int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	lst := g.neighborsAt(id, layer)
	if lst == nil {
		return nil
	}
	out := make([]int, len(lst))
	for i, nb := range lst {
		out[i] = int(nb)
	}
	return out
}

// EntryPoint returns the graph's current entry node id (-1 when empty).
func (g *Graph) EntryPoint() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.entry
}

// Deleted reports whether id is tombstoned.
func (g *Graph) Deleted(id int) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return id < 0 || id >= len(g.nodes) || g.nodes[id].deleted
}

// Stats summarizes graph shape for diagnostics and tests.
type Stats struct {
	Nodes     int // live nodes
	Deleted   int
	MaxLevel  int
	Edges     int     // directed edges across all layers
	AvgDegree float64 // layer-0 out-degree among live nodes
}

// Stats computes current graph statistics.
func (g *Graph) Stats() Stats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	st := Stats{Nodes: g.size, MaxLevel: g.maxLevel}
	var deg0 int
	for i := range g.nodes {
		nd := &g.nodes[i]
		if nd.deleted {
			st.Deleted++
			continue
		}
		for l, lst := range nd.neighbors {
			st.Edges += len(lst)
			if l == 0 {
				deg0 += len(lst)
			}
		}
	}
	if st.Nodes > 0 {
		st.AvgDegree = float64(deg0) / float64(st.Nodes)
	}
	return st
}
