// Package hnsw implements the Hierarchical Navigable Small World proximity
// graph (Malkov & Yashunin), the state-of-the-art k-ANNS index the paper
// builds its privacy-preserving index on (Section V-A).
//
// The implementation is complete rather than minimal: randomized level
// assignment, beam search with efConstruction during build, the diversity
// heuristic for neighbor selection, bidirectional linking with pruning, a
// seed-deterministic parallel bulk build (build.go), and binary
// serialization.
//
// A graph is an immutable value. Build or Load constructs it and ends by
// packing the adjacency into CSR layers — per layer, one offsets array plus
// one flat neighbor array — which searches, Save and the accessors read with
// no lock. Build links its points with the same descent and beam a search
// runs, over layers carved with room for each list to grow. A dead slot
// given to Build keeps its id (so ids stay vector positions) but is never
// linked and is never the entry point.
//
// The graph is topology over rows it does not own: a vec.Dataset of opaque
// float64 vectors, which it ranks by squared Euclidean distance and never
// writes. The PP-ANNS scheme builds it over core's column of DCPE/SAP
// ciphertexts; the plaintext baseline builds it over raw vectors.
package hnsw

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"ppanns/internal/epochset"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// Config holds HNSW build parameters; the dimension is the rows'. The
// paper's evaluation uses M = 40 and EfConstruction = 600.
type Config struct {
	// M is the maximum number of bidirectional links per node on layers
	// above 0; layer 0 allows 2·M. Defaults to 16.
	M int
	// EfConstruction is the beam width used while inserting. Defaults to 200.
	EfConstruction int
	// Seed drives level assignment and is independent of data.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	return c
}

// csrLayer is one layer's adjacency in compressed-sparse-row form: node
// id's neighbor list is nbrs[offs[id]:ends[id]] (empty when the node's
// level is below the layer). A packed layer's lists sit back to back, so
// ends is offs[1:]; while Build links, node id's slot runs on to
// offs[id+1] at the layer's full link capacity and its list grows in place.
type csrLayer struct {
	offs, ends []int32
	nbrs       []int32
	// Build's memory of its lists, parallel to nbrs and dropped by pack:
	// each entry's distance to the list's owner, and what the last
	// selection of the list learned of it — keptEntry, appendedEntry, or
	// the list position of the first kept entry found closer to it than
	// the owner.
	dist []float64
	dom  []int32
}

// The dom values that are not list positions.
const (
	keptEntry     = -1 // the last selection kept it
	appendedEntry = -2 // appended as a backlink, never checked
)

// packed is the layer whose list id is nbrs[offs[id]:offs[id+1]].
func packed(offs, nbrs []int32) csrLayer {
	return csrLayer{offs: offs, ends: offs[1:], nbrs: nbrs}
}

func (l *csrLayer) neighbors(id int) []int32 { return l.nbrs[l.offs[id]:l.ends[id]] }

// Graph is an HNSW index. Nothing writes to it once Build or Load returns,
// so any number of searches run on it concurrently, beside Save.
type Graph struct {
	cfg Config
	mL  float64

	data     *vec.Dataset // the rows Build or Load was given; never written
	live     []bool       // their liveness, likewise (nil = all live)
	levels   []int32      // per id: its top layer
	layers   []csrLayer
	entry    int
	maxLevel int
	size     int // live node count
}

// newGraph creates an empty graph over data's rows and liveness.
func newGraph(cfg Config, data *vec.Dataset, live []bool) *Graph {
	cfg = cfg.withDefaults()
	return &Graph{cfg: cfg, mL: 1 / math.Log(float64(cfg.M)), data: data, live: live, entry: -1}
}

// Len returns the number of live vectors.
func (g *Graph) Len() int { return g.size }

// IDs returns the number of ids — live nodes plus dead slots. Ids are
// dense: Build numbers its vectors 0..n-1.
func (g *Graph) IDs() int { return len(g.levels) }

// Config returns the build configuration (with defaults applied), so
// callers can construct a fresh graph with the same parameters.
func (g *Graph) Config() Config { return g.cfg }

// Vector returns id's row of the graph's data: the zero vector at a dead
// slot. Callers must treat it as read-only.
func (g *Graph) Vector(id int) []float64 { return g.data.At(id) }

// searchCtx holds per-walk scratch state: the visited set, the beam's
// candidate pool, the gathered-neighbor buffer and the blocked-kernel
// output, and the linking scratch. Query searches pool theirs across
// searches (after warm-up a search touches no allocator at all); a bulk
// build owns one per worker and drops them when it returns. Every buffer
// grows by append, to what a walk touched, never to its beam width.
type searchCtx struct {
	vis   epochset.Set
	pool  resultheap.Pool
	buf   []int32
	dists []float64 // blocked-kernel output, parallel to the gathered buf
	// Linking scratch: the diversity heuristic's rejected candidates and
	// the old-list position of each entry it kept, a backlink merge's
	// candidate ids and the memory of the list it replaces, a batch's
	// sorted (target, source) backlink keys with the start of each
	// target's run, and this worker's share of the build's work counts.
	pruned  []prunedCand
	keptOld []int32
	ids     []int32
	oldDom  []int32
	keys    []uint64
	starts  []int32
	counts  buildCounts
	// sc supplies every distance of the walk: a search's own exact
	// scanner, the caller's (SearchIntoDist), or, in Build, the exact
	// scanner bound to the node being linked. Ids passed to it are graph
	// ids.
	sc    vec.BlockScanner
	exact vec.Exact
}

// hopDists fills ctx.dists with each gathered id's distance to the query
// through the bound scanner, and counts the rows.
func (g *Graph) hopDists(ctx *searchCtx, ids []int32) []float64 {
	ctx.counts.beamRows += len(ids)
	ctx.dists = slices.Grow(ctx.dists[:0], len(ids))[:len(ids)]
	ctx.sc.DistBlock(ctx.dists, ids)
	return ctx.dists
}

func (c *searchCtx) next() { c.vis.Next() }

// Search returns the ids of the (approximately) k closest live vectors to
// q, closest first, exploring with beam width ef (ef is raised to k when
// smaller). It is the HNSW search of the paper's filter phase.
func (g *Graph) Search(q []float64, k, ef int) []resultheap.Item {
	return g.SearchInto(nil, q, k, ef)
}

// SearchInto is Search appending the results into dst (reusing its
// capacity), with the exact distances to the stored vectors. With a
// recycled dst the whole search is allocation-free after the context pool
// has warmed up.
func (g *Graph) SearchInto(dst []resultheap.Item, q []float64, k, ef int) []resultheap.Item {
	ctx := ctxPool.Get().(*searchCtx)
	defer putCtx(ctx)
	return g.searchInto(ctx, dst, q, k, ef, ctx.exact.Bind(g.data, q))
}

// SearchIntoDist is SearchInto with every candidate distance supplied by sc
// instead of computed from the stored vectors: the PQ filter path, or an
// exact scanner over rows that extend the graph's own. Traversal order,
// pool admission and result ranking all run on the scanner's distances;
// the graph structure is walked unchanged. Ids passed to sc are graph ids.
func (g *Graph) SearchIntoDist(dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item {
	ctx := ctxPool.Get().(*searchCtx)
	defer putCtx(ctx)
	return g.searchInto(ctx, dst, q, k, ef, sc)
}

// ctxPool holds the query walks' contexts. A context fits any graph: its
// visited set grows to the graph it walks.
var ctxPool = sync.Pool{New: func() any { return new(searchCtx) }}

// putCtx returns ctx to the pool, dropping the scanner bindings so the
// pool does not pin a query or a scanner's arenas.
func putCtx(ctx *searchCtx) {
	ctx.sc = nil
	ctx.exact.Reset()
	ctxPool.Put(ctx)
}

func (g *Graph) searchInto(ctx *searchCtx, dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item {
	if len(q) != g.data.Dim() {
		panic(fmt.Sprintf("hnsw: searching %d-dim query in %d-dim graph", len(q), g.data.Dim()))
	}
	if ef < k {
		ef = k
	}
	if g.size == 0 {
		return dst[:0]
	}
	ctx.vis.Grow(len(g.levels))
	ctx.next()
	ctx.sc = sc

	ep := g.entry
	epDist := sc.Dist(int32(ep))
	for l := g.maxLevel; l > 0; l-- {
		ep, epDist = g.descend(ctx, ep, epDist, &g.layers[l])
	}
	ctx.next()
	g.beam(ctx, ep, epDist, ef, &g.layers[0])
	return ctx.pool.AppendItems(dst, k)
}

// descend walks one layer greedily towards q, returning the closest node
// found and its distance: one blocked distance call per hop. Searches and
// Build's linking both descend with it.
func (g *Graph) descend(ctx *searchCtx, ep int, epDist float64, lay *csrLayer) (int, float64) {
	for {
		improved := false
		nbrs := lay.neighbors(ep)
		dists := g.hopDists(ctx, nbrs)
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

// beam is the beam search of the HNSW paper (Algorithm 2) on one layer,
// over ctx.pool: from ep it expands the closest unexpanded candidate of a
// pool of width ef until every pooled candidate is expanded. Each hop
// gathers its unvisited neighbors and evaluates them with one blocked
// kernel call, then offers them to the pool in neighbor order. Searches
// run it on layer 0; Build runs it on every layer a new node joins. No
// list names a dead slot and the entry point is live (Build never links a
// dead slot, Load refuses a graph that does), so a walk never meets one.
// It returns the pool's candidates, closest first; they are ctx-owned:
// consume them before the next walk on ctx.
func (g *Graph) beam(ctx *searchCtx, ep int, epDist float64, ef int, lay *csrLayer) []resultheap.Cand {
	offs, ends, nbrs := lay.offs, lay.ends, lay.nbrs
	pool := &ctx.pool
	pool.Reset()
	pool.Offer(int32(ep), epDist, ef)
	ctx.vis.Seen(ep)
	gather := ctx.buf
	for {
		c, ok := pool.Expand()
		if !ok {
			break
		}
		gather = ctx.vis.Unseen(gather[:0], nbrs[offs[c]:ends[c]])
		dists := g.hopDists(ctx, gather)
		for j, nb := range gather {
			pool.Offer(nb, dists[j], ef)
		}
	}
	ctx.buf = gather
	return pool.Cands()
}

// Neighbors returns a copy of id's adjacency list at the given layer (nil
// when the node's level is below the layer). Baselines that lay the graph
// out as PIR blocks read it through this accessor.
func (g *Graph) Neighbors(id, layer int) []int {
	if layer > int(g.levels[id]) {
		return nil
	}
	lst := g.layers[layer].neighbors(id)
	out := make([]int, len(lst))
	for i, nb := range lst {
		out[i] = int(nb)
	}
	return out
}

// EntryPoint returns the graph's entry node id (-1 when empty).
func (g *Graph) EntryPoint() int { return g.entry }

// Deleted reports whether id is a dead slot (or not an id at all).
func (g *Graph) Deleted(id int) bool {
	return id < 0 || id >= len(g.levels) || g.live != nil && !g.live[id]
}

// Stats summarizes graph shape for diagnostics and tests.
type Stats struct {
	Nodes     int // live nodes
	Deleted   int
	MaxLevel  int
	Edges     int     // directed edges across all layers
	AvgDegree float64 // layer-0 out-degree among live nodes
}

// Stats computes the graph's statistics.
func (g *Graph) Stats() Stats {
	st := Stats{Nodes: g.size, MaxLevel: g.maxLevel}
	var deg0 int
	for id := range g.levels {
		if g.Deleted(id) {
			st.Deleted++
			continue
		}
		for l := 0; l <= int(g.levels[id]); l++ {
			d := len(g.layers[l].neighbors(id))
			st.Edges += d
			if l == 0 {
				deg0 += d
			}
		}
	}
	if st.Nodes > 0 {
		st.AvgDegree = float64(deg0) / float64(st.Nodes)
	}
	return st
}
