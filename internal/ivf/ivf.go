// Package ivf implements an IVF-Flat inverted-file index: a k-means coarse
// quantizer routes each vector to one of nlist inverted lists, and a query
// exhaustively scans its nprobe closest lists. Inverted files are the
// second index family the paper names (Sections I/VIII); this package backs
// the index-ablation experiment that compares filter-phase backends over
// SAP ciphertexts.
//
// An index is an immutable value: built (Build, Rebuild) or loaded (Load)
// once and then only read, with no lock. It is topology over rows it does
// not own: the lists name ids of a vec.Dataset the index keeps but never
// writes. A dead slot keeps its id and its row, and no list holds it.
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
	// Seed drives quantizer training.
	Seed uint64
}

// Index is an IVF-Flat index. Nothing writes to it after construction, so
// any number of searches run on it concurrently, beside Save.
type Index struct {
	// cents is the quantizer: nlist centroid rows of the data's dimension,
	// the flat block k-means returns.
	cents []float64
	// trained is the k-means work Build spent on the quantizer; zero for
	// an index that was loaded.
	trained kmeans.Stats

	// The inverted lists in CSR form: list c's live members, in id order,
	// are ids[offs[c]:offs[c+1]], so a probe scans one contiguous id span.
	offs []int32
	ids  []int32
	data *vec.Dataset // the rows Build or Load was given; never written
	live []bool       // their liveness, likewise (nil = all live)
	size int          // live row count
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

// Build trains the quantizer on the live rows of data and populates the
// lists. The index keeps data as its rows and live as its liveness, and
// never writes either. live[i] false makes id i a dead slot, whose row
// should be zero; a nil live makes every row live. A build with no live
// row has no lists.
func Build(data *vec.Dataset, live []bool, cfg Config) (*Index, error) {
	if data.Len() == 0 {
		return nil, fmt.Errorf("ivf: empty data")
	}
	if live != nil && len(live) != data.Len() {
		return nil, fmt.Errorf("ivf: liveness of %d ids for %d rows", len(live), data.Len())
	}
	var rows [][]float64
	var liveIDs []int
	for i := range data.Len() {
		if live == nil || live[i] {
			rows = append(rows, data.At(i))
			liveIDs = append(liveIDs, i)
		}
	}
	ix := &Index{}
	assign := make([]int, data.Len())
	if len(rows) > 0 {
		nlist := min(max(isqrt(len(rows)), minLists), maxLists, len(rows))
		res, err := kmeans.Fit(rows, kmeans.Config{K: nlist, MaxIters: trainIters, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		ix.cents, ix.trained = res.Flat, res.Stats
		for j, i := range liveIDs {
			assign[i] = res.Assign[j]
		}
	}
	ix.populate(data, live, assign)
	return ix, nil
}

// populate fills an empty index over data, live row i in list assign[i]
// and every other a dead slot: ids are positions and every list is in id
// order.
func (ix *Index) populate(data *vec.Dataset, live []bool, assign []int) {
	ix.data, ix.live = data, live
	nlist := ix.Lists()
	ix.offs = make([]int32, nlist+1)
	for i := range data.Len() {
		if live == nil || live[i] {
			ix.offs[assign[i]+1]++
			ix.size++
		}
	}
	for c := 0; c < nlist; c++ {
		ix.offs[c+1] += ix.offs[c]
	}
	next := append([]int32(nil), ix.offs[:nlist]...)
	ix.ids = make([]int32, ix.size)
	for i := range data.Len() {
		if live == nil || live[i] {
			ix.ids[next[assign[i]]] = int32(i)
			next[assign[i]]++
		}
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
func (ix *Index) Len() int { return ix.size }

// Vector returns a live id's row of the index's data, or nil for a dead
// slot or an out-of-range id. Callers must treat it as read-only.
func (ix *Index) Vector(id int) []float64 {
	if id < 0 || id >= ix.data.Len() || ix.live != nil && !ix.live[id] {
		return nil
	}
	return ix.data.At(id)
}

// Lists returns nlist.
func (ix *Index) Lists() int { return len(ix.cents) / ix.data.Dim() }

// Rebuild returns a new index over data and live, as Build takes them,
// sharing the receiver's trained quantizer: the fold primitive of
// compaction, which re-populates from scratch without paying for k-means
// training again. The centroids are immutable, so sharing them is safe.
// Every live row lands in the list a full scan of the centroids would
// choose; the rows are assigned in parallel by a kmeans.Searcher, each
// starting from the list the receiver holds its id in (a fold keeps ids,
// so that is usually the answer already), or below kmeans.WideRow
// dimensions by that full scan itself, and the lists are filled in id
// order. A receiver with no lists (built with no live vector) has no
// quantizer to share, so its Rebuild trains one.
func (ix *Index) Rebuild(data *vec.Dataset, live []bool) (*Index, error) {
	dim := ix.data.Dim()
	if data.Dim() != dim {
		panic(fmt.Sprintf("ivf: rebuilding a %d-dim index over %d-dim rows", dim, data.Dim()))
	}
	if len(ix.cents) == 0 {
		return Build(data, live, Config{})
	}
	if live != nil && len(live) != data.Len() {
		return nil, fmt.Errorf("ivf: liveness of %d ids for %d rows", len(live), data.Len())
	}
	var search *kmeans.Searcher
	if dim >= kmeans.WideRow {
		search = kmeans.NewSearcher(ix.cents, dim)
	}

	assign := make([]int, data.Len())
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
	par.Spans(runtime.GOMAXPROCS(0), len(assign), 256, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if live != nil && !live[i] {
				continue
			}
			v := data.At(i)
			if search == nil {
				assign[i], _ = kmeans.NearestFlat(ix.cents, dim, v)
				continue
			}
			guess := assign[i]
			if guess < 0 {
				guess = search.Guess(v)
			}
			assign[i], _ = search.Nearest(v, guess)
		}
	})

	fresh := &Index{cents: ix.cents}
	fresh.populate(data, live, assign)
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
	if len(q) != ix.data.Dim() {
		panic(fmt.Sprintf("ivf: querying %d-dim vector in %d-dim index", len(q), ix.data.Dim()))
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
