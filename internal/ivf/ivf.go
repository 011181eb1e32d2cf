// Package ivf implements an IVF-Flat inverted-file index: a k-means coarse
// quantizer routes each vector to one of nlist inverted lists, and a query
// exhaustively scans its nprobe closest lists. Inverted files are the
// second index family the paper names (Sections I/VIII); this package backs
// the index-ablation experiment that compares filter-phase backends over
// SAP ciphertexts.
//
// An index is built once (Build, Rebuild or Load) and then only read; Delete
// tombstones ids without touching the lists.
package ivf

import (
	"fmt"
	"runtime"
	"sync"

	"ppanns/internal/kmeans"
	"ppanns/internal/par"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// Config parameterizes index construction.
type Config struct {
	// Lists is nlist, the number of inverted lists (default √n capped to
	// [16, 4096]).
	Lists int
	// TrainIters bounds the k-means iterations (default 20).
	TrainIters int
	// Seed drives quantizer training.
	Seed uint64
}

// Index is a thread-safe IVF-Flat index.
type Index struct {
	dim       int
	centroids [][]float64
	// trained is the k-means work Build spent on the quantizer; zero for
	// an index that was loaded.
	trained kmeans.Stats

	// The inverted lists in CSR form, fixed when the index is built or
	// loaded: list c's members, in id order, are ids[offs[c]:offs[c+1]],
	// so a probe scans one contiguous id span.
	offs []int32
	ids  []int32
	data *vec.Dataset

	mu      sync.RWMutex
	deleted []bool
	live    int

	ctxPool sync.Pool
}

// searchCtx is the pooled per-search scratch: probe list, gathered live
// ids, blocked-kernel output, result heap and drain buffer.
type searchCtx struct {
	probes     []int
	probeDists []float64
	gather     []int32
	dists      []float64
	res        *resultheap.MaxDistHeap
	items      []resultheap.Item
}

// Build trains the quantizer on the vectors and populates the lists.
func Build(vectors [][]float64, cfg Config) (*Index, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("ivf: empty data")
	}
	nlist := cfg.Lists
	if nlist <= 0 {
		nlist = isqrt(len(vectors))
		if nlist < 16 {
			nlist = 16
		}
		if nlist > 4096 {
			nlist = 4096
		}
	}
	if nlist > len(vectors) {
		nlist = len(vectors)
	}
	iters := cfg.TrainIters
	if iters <= 0 {
		iters = 20
	}
	res, err := kmeans.Fit(vectors, kmeans.Config{K: nlist, MaxIters: iters, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	ix := &Index{
		dim:       len(vectors[0]),
		centroids: res.Centroids,
		trained:   res.Stats,
	}
	ix.populate(vectors, res.Assign)
	return ix, nil
}

// populate fills an empty index with vectors, vector i in list assign[i]:
// ids are positions and every list is in id order.
func (ix *Index) populate(vectors [][]float64, assign []int) {
	nlist := len(ix.centroids)
	ix.offs = make([]int32, nlist+1)
	for _, c := range assign {
		ix.offs[c+1]++
	}
	for c := 0; c < nlist; c++ {
		ix.offs[c+1] += ix.offs[c]
	}
	next := append([]int32(nil), ix.offs[:nlist]...)
	ix.ids = make([]int32, len(vectors))
	ix.data = vec.NewDataset(ix.dim, len(vectors))
	for i, v := range vectors {
		ix.data.Append(v)
		ix.ids[next[assign[i]]] = int32(i)
		next[assign[i]]++
	}
	ix.deleted = make([]bool, len(vectors))
	ix.live = len(vectors)
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
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.live
}

// Dim returns the vector dimension.
func (ix *Index) Dim() int { return ix.dim }

// Vector returns the stored vector for id (also valid for deleted ids,
// whose rows remain as tombstones), or nil for out-of-range ids.
func (ix *Index) Vector(id int) []float64 {
	if id < 0 || id >= ix.data.Len() {
		return nil
	}
	return ix.data.At(id)
}

// Lists returns nlist.
func (ix *Index) Lists() int { return len(ix.centroids) }

// Rebuild returns a new index over vectors (ids are positions) sharing the
// receiver's trained quantizer: the fold primitive of compaction, which
// re-populates from scratch — tombstoned members are simply absent —
// without paying for k-means training again. The centroids are immutable,
// so sharing them is safe. Every vector lands in the list a full scan of
// the centroids would choose; the points are assigned in parallel by a
// kmeans.Searcher, each starting from the list the receiver holds its id
// in (a fold keeps ids, so that is usually the answer already) and the
// lists are filled in id order.
func (ix *Index) Rebuild(vectors [][]float64) *Index {
	for _, v := range vectors {
		if len(v) != ix.dim {
			panic(fmt.Sprintf("ivf: rebuilding a %d-dim index over a %d-dim vector", ix.dim, len(v)))
		}
	}
	flat := make([]float64, 0, len(ix.centroids)*ix.dim)
	for _, c := range ix.centroids {
		flat = append(flat, c...)
	}
	search := kmeans.NewSearcher(flat, ix.dim)

	assign := make([]int, len(vectors))
	for i := range assign {
		assign[i] = -1
	}
	for c := range ix.centroids {
		for _, id := range ix.list(c) {
			if int(id) < len(assign) {
				assign[id] = c
			}
		}
	}
	par.Spans(runtime.GOMAXPROCS(0), len(vectors), 256, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			guess := assign[i]
			if guess < 0 {
				guess = search.Guess(vectors[i])
			}
			assign[i], _ = search.Nearest(vectors[i], guess)
		}
	})

	fresh := &Index{dim: ix.dim, centroids: ix.centroids}
	fresh.populate(vectors, assign)
	return fresh
}

// Delete tombstones an id.
func (ix *Index) Delete(id int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if id < 0 || id >= len(ix.deleted) {
		return fmt.Errorf("ivf: delete of unknown id %d", id)
	}
	if ix.deleted[id] {
		return fmt.Errorf("ivf: id %d already deleted", id)
	}
	ix.deleted[id] = true
	ix.live--
	return nil
}

// SearchInto scans the nprobe closest lists and appends the k nearest live
// ids, closest first, to dst[:0]. Scratch state is pooled and each probed
// list is evaluated with one blocked distance call over its live members,
// so a warm search with a recycled dst allocates nothing.
func (ix *Index) SearchInto(dst []resultheap.Item, q []float64, k, nprobe int) []resultheap.Item {
	return ix.searchInto(dst, q, k, nprobe, nil)
}

// SearchIntoDist is SearchInto with member distances supplied by sc instead
// of computed from the stored vectors — the compressed (PQ) filter path.
// Coarse-quantizer probing still scores centroids against q exactly; every
// list member is ranked through sc. Ids passed to sc are vector positions
// (IVF ids are positions).
func (ix *Index) SearchIntoDist(dst []resultheap.Item, q []float64, k, nprobe int, sc vec.BlockScanner) []resultheap.Item {
	return ix.searchInto(dst, q, k, nprobe, sc)
}

func (ix *Index) searchInto(dst []resultheap.Item, q []float64, k, nprobe int, sc vec.BlockScanner) []resultheap.Item {
	if len(q) != ix.dim {
		panic(fmt.Sprintf("ivf: querying %d-dim vector in %d-dim index", len(q), ix.dim))
	}
	if nprobe <= 0 {
		nprobe = 1
	}
	if nprobe > len(ix.centroids) {
		nprobe = len(ix.centroids)
	}
	ctx, _ := ix.ctxPool.Get().(*searchCtx)
	if ctx == nil {
		ctx = &searchCtx{res: resultheap.NewMaxDistHeap(k + 1)}
	}
	defer ix.ctxPool.Put(ctx)
	ctx.probes, ctx.probeDists = kmeans.NearestNInto(ctx.probes, ctx.probeDists, ix.centroids, q, nprobe)

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	res := ctx.res
	res.Reset()
	gather := ctx.gather
	for _, c := range ctx.probes {
		gather = gather[:0]
		for _, id := range ix.list(c) {
			if !ix.deleted[id] {
				gather = append(gather, id)
			}
		}
		if sc != nil {
			if cap(ctx.dists) < len(gather) {
				ctx.dists = make([]float64, len(gather))
			} else {
				ctx.dists = ctx.dists[:len(gather)]
			}
			sc.DistBlock(ctx.dists, gather)
		} else {
			ctx.dists = ix.data.SqDistBlock(ctx.dists, q, gather)
		}
		for j, id := range gather {
			res.PushBounded(int(id), ctx.dists[j], k)
		}
	}
	ctx.gather = gather
	ctx.items = res.SortedInto(ctx.items)
	return append(dst[:0], ctx.items...)
}
