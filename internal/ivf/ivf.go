// Package ivf implements an IVF-Flat inverted-file index: a k-means coarse
// quantizer routes each vector to one of nlist inverted lists, and a query
// exhaustively scans its nprobe closest lists. Inverted files are the
// second index family the paper names (Sections I/VIII); this package backs
// the index-ablation experiment that compares filter-phase backends over
// SAP ciphertexts.
package ivf

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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

	mu      sync.RWMutex
	lists   [][]int32 // list → member ids
	data    *vec.Dataset
	deleted []bool
	live    int

	// gen counts membership mutations (Add; Delete only tombstones, which
	// the flat view does not capture). flat caches the CSR flattening of
	// lists for the current generation: one offsets array plus one flat
	// member array, so a probe scans a contiguous id span instead of
	// chasing the outer slice. Built lazily on first search, invalidated by
	// the generation bump. noFlat pins searches to the slice-of-slices path
	// (conformance tests compare the two).
	gen     atomic.Uint64
	flat    atomic.Pointer[flatLists]
	flatMu  sync.Mutex
	noFlat  bool
	ctxPool sync.Pool
}

// flatLists is the immutable CSR view of the inverted lists at one
// generation: list c's members are ids[offs[c]:offs[c+1]].
type flatLists struct {
	gen  uint64
	offs []int32
	ids  []int32
}

// flatFor returns the CSR list view for the current generation, building
// it if stale. Caller must hold at least the read lock, which excludes the
// membership mutations that would invalidate the build mid-flight.
func (ix *Index) flatFor() *flatLists {
	if ix.noFlat {
		return nil
	}
	cur := ix.gen.Load()
	if f := ix.flat.Load(); f != nil && f.gen == cur {
		return f
	}
	if !ix.flatMu.TryLock() {
		return nil
	}
	defer ix.flatMu.Unlock()
	if f := ix.flat.Load(); f != nil && f.gen == cur {
		return f
	}
	offs, ids := vec.FlattenCSR(ix.lists)
	f := &flatLists{gen: cur, offs: offs, ids: ids}
	ix.flat.Store(f)
	return f
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
	ix.lists = make([][]int32, len(ix.centroids))
	ix.data = vec.NewDataset(ix.dim, len(vectors))
	ix.deleted = make([]bool, len(vectors))
	for i, v := range vectors {
		ix.data.Append(v)
		ix.lists[assign[i]] = append(ix.lists[assign[i]], int32(i))
	}
	ix.live = len(vectors)
}

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
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if id < 0 || id >= len(ix.deleted) {
		return nil
	}
	return ix.data.At(id)
}

// Lists returns nlist.
func (ix *Index) Lists() int { return len(ix.lists) }

// Clone returns an independent copy of the index: the inverted lists,
// vectors and tombstones are copied, so Add/Delete on either side is
// invisible to the other. The trained quantizer is immutable and shared.
func (ix *Index) Clone() *Index {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	cp := &Index{
		dim:       ix.dim,
		centroids: ix.centroids,
		lists:     make([][]int32, len(ix.lists)),
		data:      ix.data.Clone(),
		deleted:   append([]bool(nil), ix.deleted...),
		live:      ix.live,
	}
	for i, lst := range ix.lists {
		cp.lists[i] = append([]int32(nil), lst...)
	}
	return cp
}

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
	ix.mu.RLock()
	for c, lst := range ix.lists {
		for _, id := range lst {
			if int(id) < len(assign) {
				assign[id] = c
			}
		}
	}
	ix.mu.RUnlock()
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

// Add inserts a vector and returns its id.
func (ix *Index) Add(v []float64) int {
	if len(v) != ix.dim {
		panic(fmt.Sprintf("ivf: adding %d-dim vector to %d-dim index", len(v), ix.dim))
	}
	c := kmeans.Nearest(ix.centroids, v)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.gen.Add(1) // invalidate the cached flat list view
	id := ix.data.Append(v)
	ix.deleted = append(ix.deleted, false)
	ix.lists[c] = append(ix.lists[c], int32(id))
	ix.live++
	return id
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

// Search scans the nprobe closest lists and returns the k nearest live
// ids, closest first.
func (ix *Index) Search(q []float64, k, nprobe int) []resultheap.Item {
	return ix.SearchInto(nil, q, k, nprobe)
}

// SearchInto is Search appending into dst (reusing its capacity). Scratch
// state is pooled and each probed list is evaluated with one blocked
// distance call over the flattened member arena, so a warm search with a
// recycled dst allocates nothing.
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
	if nprobe > len(ix.lists) {
		nprobe = len(ix.lists)
	}
	ctx, _ := ix.ctxPool.Get().(*searchCtx)
	if ctx == nil {
		ctx = &searchCtx{res: resultheap.NewMaxDistHeap(k + 1)}
	}
	defer ix.ctxPool.Put(ctx)
	ctx.probes, ctx.probeDists = kmeans.NearestNInto(ctx.probes, ctx.probeDists, ix.centroids, q, nprobe)

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	flat := ix.flatFor()
	res := ctx.res
	res.Reset()
	gather := ctx.gather
	for _, c := range ctx.probes {
		var members []int32
		if flat != nil {
			members = flat.ids[flat.offs[c]:flat.offs[c+1]]
		} else {
			members = ix.lists[c]
		}
		gather = gather[:0]
		for _, id := range members {
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
