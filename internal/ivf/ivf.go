// Package ivf implements an IVF-Flat inverted-file index: a k-means coarse
// quantizer routes each vector to one of nlist inverted lists, and a query
// exhaustively scans its nprobe closest lists. Inverted files are the
// second index family the paper names (Sections I/VIII); this package backs
// the index-ablation experiment that compares filter-phase backends over
// SAP ciphertexts.
//
// An index is an immutable value: built (Build, Rebuild) or loaded (Load)
// once and then only read, with no lock. A nil row in the vectors is a dead
// slot: it keeps its id and a zero row, and no list holds it.
package ivf

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"ppanns/internal/kmeans"
	"ppanns/internal/par"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// The quantizer's recipe: nlist is √n over the n live vectors, held to
// [minLists, maxLists] and to n itself, trained by at most trainIters
// Lloyd iterations.
const (
	minLists   = 16
	maxLists   = 4096
	trainIters = 20
)

// Config parameterizes index construction.
type Config struct {
	// Dim is the vector dimension of a build with no live vector; any
	// other build takes it from its vectors.
	Dim int
	// Seed drives quantizer training.
	Seed uint64
}

// Index is an IVF-Flat index. Nothing writes to it after construction, so
// any number of searches run on it concurrently, beside Save.
type Index struct {
	dim int
	// cents is the quantizer: nlist centroid rows of dim floats, the flat
	// block k-means returns.
	cents []float64
	// trained is the k-means work Build spent on the quantizer; zero for
	// an index that was loaded.
	trained kmeans.Stats

	// The inverted lists in CSR form: list c's live members, in id order,
	// are ids[offs[c]:offs[c+1]], so a probe scans one contiguous id span.
	offs    []int32
	ids     []int32
	data    *vec.Dataset
	deleted []bool
	live    int
}

// searchCtx is the pooled per-search scratch: the probe pick and the
// result, each a top-k pool, the blocked-kernel output (the centroid
// distances, then each probed list's), and the exact scanner SearchInto
// binds.
type searchCtx struct {
	probes resultheap.Pool
	res    resultheap.Pool
	dists  []float64
	exact  vec.Exact
}

// Build trains the quantizer on the live vectors and populates the lists.
// A vector set whose rows are all nil builds an index with no lists, of
// dimension cfg.Dim.
func Build(vectors [][]float64, cfg Config) (*Index, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("ivf: empty data")
	}
	var live [][]float64
	var liveIDs []int
	for i, v := range vectors {
		if v != nil {
			live = append(live, v)
			liveIDs = append(liveIDs, i)
		}
	}
	ix := &Index{dim: cfg.Dim}
	if len(live) > 0 {
		ix.dim = len(live[0])
	}
	if ix.dim <= 0 {
		return nil, fmt.Errorf("ivf: no live vector and no dimension")
	}
	assign := make([]int, len(vectors))
	if len(live) > 0 {
		nlist := min(max(isqrt(len(live)), minLists), maxLists, len(live))
		res, err := kmeans.Fit(live, kmeans.Config{K: nlist, MaxIters: trainIters, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		ix.cents, ix.trained = res.Flat, res.Stats
		for j, i := range liveIDs {
			assign[i] = res.Assign[j]
		}
	}
	ix.populate(vectors, assign)
	return ix, nil
}

// populate fills an empty index with vectors, live vector i in list
// assign[i] and every nil row a dead slot: ids are positions and every
// list is in id order.
func (ix *Index) populate(vectors [][]float64, assign []int) {
	nlist := ix.Lists()
	ix.offs = make([]int32, nlist+1)
	ix.deleted = make([]bool, len(vectors))
	for i, v := range vectors {
		if v == nil {
			ix.deleted[i] = true
			continue
		}
		ix.offs[assign[i]+1]++
		ix.live++
	}
	for c := 0; c < nlist; c++ {
		ix.offs[c+1] += ix.offs[c]
	}
	next := append([]int32(nil), ix.offs[:nlist]...)
	ix.ids = make([]int32, ix.live)
	ix.data = vec.NewDataset(ix.dim, len(vectors))
	for i, v := range vectors {
		if v == nil {
			ix.data.AppendZero()
			continue
		}
		ix.data.Append(v)
		ix.ids[next[assign[i]]] = int32(i)
		next[assign[i]]++
	}
}

// list returns list c's members.
func (ix *Index) list(c int) []int32 { return ix.ids[ix.offs[c]:ix.offs[c+1]] }

// Trained returns the k-means work Build spent on the quantizer.
func (ix *Index) Trained() kmeans.Stats { return ix.trained }

func isqrt(n int) int {
	x := 1
	for x*x < n {
		x++
	}
	return x
}

// Len returns the number of live vectors.
func (ix *Index) Len() int { return ix.live }

// Vector returns the stored vector for a live id, or nil for a dead slot
// or an out-of-range id.
func (ix *Index) Vector(id int) []float64 {
	if id < 0 || id >= len(ix.deleted) || ix.deleted[id] {
		return nil
	}
	return ix.data.At(id)
}

// Rows returns the stored vectors: row id holds id's vector, a zero row at
// a dead slot. Callers must treat it as read-only.
func (ix *Index) Rows() *vec.Dataset { return ix.data }

// Lists returns nlist.
func (ix *Index) Lists() int { return len(ix.cents) / ix.dim }

// Rebuild returns a new index over vectors (ids are positions, nil rows
// dead slots) sharing the receiver's trained quantizer: the fold primitive
// of compaction, which re-populates from scratch without paying for
// k-means training again. The centroids are immutable, so sharing them is
// safe. Every vector lands in the list a full scan of the centroids would
// choose; the points are assigned in parallel by a kmeans.Searcher, each
// starting from the list the receiver holds its id in (a fold keeps ids, so
// that is usually the answer already), or below kmeans.WideRow dimensions
// by that full scan itself, and the lists are filled in id order.
// A receiver with no lists (built with no live vector) has no quantizer to
// share, so its Rebuild trains one.
func (ix *Index) Rebuild(vectors [][]float64) (*Index, error) {
	if len(ix.cents) == 0 {
		return Build(vectors, Config{Dim: ix.dim})
	}
	for _, v := range vectors {
		if v != nil && len(v) != ix.dim {
			panic(fmt.Sprintf("ivf: rebuilding a %d-dim index over a %d-dim vector", ix.dim, len(v)))
		}
	}
	var search *kmeans.Searcher
	if ix.dim >= kmeans.WideRow {
		search = kmeans.NewSearcher(ix.cents, ix.dim)
	}

	assign := make([]int, len(vectors))
	for i := range assign {
		assign[i] = -1
	}
	for c := range ix.Lists() {
		for _, id := range ix.list(c) {
			if int(id) < len(assign) {
				assign[id] = c
			}
		}
	}
	par.Spans(runtime.GOMAXPROCS(0), len(vectors), 256, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if vectors[i] == nil {
				continue
			}
			if search == nil {
				assign[i], _ = kmeans.NearestFlat(ix.cents, ix.dim, vectors[i])
				continue
			}
			guess := assign[i]
			if guess < 0 {
				guess = search.Guess(vectors[i])
			}
			assign[i], _ = search.Nearest(vectors[i], guess)
		}
	})

	fresh := &Index{dim: ix.dim, cents: ix.cents}
	fresh.populate(vectors, assign)
	return fresh, nil
}

// SearchInto scans the nprobe closest lists and appends the k nearest live
// ids, closest first, to dst[:0], with the exact distances to the stored
// vectors. Scratch state is pooled and each probed list is evaluated with
// one blocked distance call over its id span, so a warm search with a
// recycled dst allocates nothing.
func (ix *Index) SearchInto(dst []resultheap.Item, q []float64, k, nprobe int) []resultheap.Item {
	ctx := ctxPool.Get().(*searchCtx)
	defer putCtx(ctx)
	return ix.searchInto(ctx, dst, q, k, nprobe, ctx.exact.Bind(ix.data, q))
}

// SearchIntoDist is SearchInto with member distances supplied by sc instead
// of computed from the stored vectors: the PQ filter path, or an exact
// scanner over rows that extend the index's own. Coarse-quantizer probing
// still scores centroids against q exactly; every list member is ranked
// through sc. Ids passed to sc are vector positions (IVF ids are
// positions).
func (ix *Index) SearchIntoDist(dst []resultheap.Item, q []float64, k, nprobe int, sc vec.BlockScanner) []resultheap.Item {
	ctx := ctxPool.Get().(*searchCtx)
	defer putCtx(ctx)
	return ix.searchInto(ctx, dst, q, k, nprobe, sc)
}

// ctxPool holds the searches' contexts, which fit any index.
var ctxPool = sync.Pool{New: func() any { return new(searchCtx) }}

// putCtx returns ctx to the pool with its scanner unbound, so the pool
// does not pin a query.
func putCtx(ctx *searchCtx) {
	ctx.exact.Reset()
	ctxPool.Put(ctx)
}

func (ix *Index) searchInto(ctx *searchCtx, dst []resultheap.Item, q []float64, k, nprobe int, sc vec.BlockScanner) []resultheap.Item {
	if len(q) != ix.dim {
		panic(fmt.Sprintf("ivf: querying %d-dim vector in %d-dim index", len(q), ix.dim))
	}
	nlist := ix.Lists()
	nprobe = min(max(nprobe, 1), nlist)
	ctx.probes.Reset()
	ctx.dists = slices.Grow(ctx.dists[:0], nlist)[:nlist]
	vec.SqDistRows(ctx.dists, ix.cents, q)
	for c, d := range ctx.dists {
		ctx.probes.Offer(int32(c), d, nprobe)
	}

	res := &ctx.res
	res.Reset()
	for _, p := range ctx.probes.Cands() {
		lst := ix.list(int(p.ID))
		ctx.dists = slices.Grow(ctx.dists[:0], len(lst))[:len(lst)]
		sc.DistBlock(ctx.dists, lst)
		for j, id := range lst {
			res.Offer(id, ctx.dists[j], k)
		}
	}
	return res.AppendItems(dst, k)
}
