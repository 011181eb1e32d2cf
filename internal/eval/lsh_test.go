package eval

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"testing"

	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// Euclidean locality-sensitive hashing (E2LSH with p-stable Gaussian
// projections): the index under the RS-SANN and PRI-ANN baselines, and the
// hashing row of TestIndexes' index ablation.
//
// Each of L tables hashes a vector with K concatenated quantized
// projections h_i(v) = ⌊(a_i·v + b_i)/W⌋; a query retrieves the union of
// its matching buckets (optionally probing neighboring buckets,
// multi-probe style) as the candidate set the caller then refines.

// lshConfig parameterizes an LSH index.
type lshConfig struct {
	// Dim is the vector dimension (required).
	Dim int
	// Tables is L, the number of independent hash tables. Defaults to 8.
	Tables int
	// Hashes is K, the projections concatenated per table. Defaults to 12.
	Hashes int
	// W is the quantization width. Defaults to 4.
	W float64
	// Seed drives projection sampling.
	Seed uint64
}

func (c lshConfig) withDefaults() (lshConfig, error) {
	if c.Dim <= 0 {
		return c, fmt.Errorf("lsh: non-positive dimension %d", c.Dim)
	}
	if c.Tables <= 0 {
		c.Tables = 8
	}
	if c.Hashes <= 0 {
		c.Hashes = 12
	}
	if c.W <= 0 {
		c.W = 4
	}
	return c, nil
}

type lshTable struct {
	projs   [][]float64 // K rows of dim
	offsets []float64   // K offsets b_i ∈ [0, W)
	buckets map[uint64][]int32
}

// lshIndex is a thread-safe E2LSH index over external integer ids.
type lshIndex struct {
	cfg    lshConfig
	seed   maphash.Seed
	mu     sync.RWMutex
	tables []lshTable
	count  int
}

// newLSH creates an empty LSH index.
func newLSH(cfg lshConfig) (*lshIndex, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := rng.NewSeeded(cfg.Seed ^ 0x15a)
	ix := &lshIndex{cfg: cfg, seed: maphash.MakeSeed()}
	ix.tables = make([]lshTable, cfg.Tables)
	for t := range ix.tables {
		tb := &ix.tables[t]
		tb.buckets = make(map[uint64][]int32)
		tb.projs = make([][]float64, cfg.Hashes)
		tb.offsets = make([]float64, cfg.Hashes)
		for h := 0; h < cfg.Hashes; h++ {
			tb.projs[h] = rng.Gaussian(r, nil, cfg.Dim)
			tb.offsets[h] = rng.Uniform(r, 0, cfg.W)
		}
	}
	return ix, nil
}

// size returns the number of indexed vectors.
func (ix *lshIndex) size() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.count
}

// rawHashes computes the K quantized projections of v in one table.
func (ix *lshIndex) rawHashes(tb *lshTable, v []float64, dst []int64) []int64 {
	dst = dst[:0]
	for h := 0; h < ix.cfg.Hashes; h++ {
		x := (vec.Dot(tb.projs[h], v) + tb.offsets[h]) / ix.cfg.W
		dst = append(dst, floorI64(x))
	}
	return dst
}

func floorI64(x float64) int64 {
	i := int64(x)
	if float64(i) > x {
		i--
	}
	return i
}

// key folds K quantized projections into one bucket key.
func (ix *lshIndex) key(hashes []int64) uint64 {
	var mh maphash.Hash
	mh.SetSeed(ix.seed)
	var buf [8]byte
	for _, h := range hashes {
		for b := 0; b < 8; b++ {
			buf[b] = byte(uint64(h) >> (8 * b))
		}
		mh.Write(buf[:])
	}
	return mh.Sum64()
}

// insert indexes v under id. Safe for concurrent use with other inserts.
func (ix *lshIndex) insert(id int, v []float64) {
	if len(v) != ix.cfg.Dim {
		panic(fmt.Sprintf("lsh: inserting %d-dim vector into %d-dim index", len(v), ix.cfg.Dim))
	}
	scratch := make([]int64, 0, ix.cfg.Hashes)
	keys := make([]uint64, len(ix.tables))
	for t := range ix.tables {
		scratch = ix.rawHashes(&ix.tables[t], v, scratch)
		keys[t] = ix.key(scratch)
	}
	ix.mu.Lock()
	for t := range ix.tables {
		tb := &ix.tables[t]
		tb.buckets[keys[t]] = append(tb.buckets[keys[t]], int32(id))
	}
	ix.count++
	ix.mu.Unlock()
}

// candidates returns the deduplicated union of q's buckets across all
// tables, probing up to probes neighboring buckets per table (0 = exact
// bucket only). maxCandidates truncates the result (≤ 0 = unlimited).
func (ix *lshIndex) candidates(q []float64, probes, maxCandidates int) []int {
	if len(q) != ix.cfg.Dim {
		panic(fmt.Sprintf("lsh: querying %d-dim vector in %d-dim index", len(q), ix.cfg.Dim))
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	seen := make(map[int32]struct{})
	var out []int
	scratch := make([]int64, 0, ix.cfg.Hashes)
	collect := func(tb *lshTable, key uint64) {
		for _, id := range tb.buckets[key] {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, int(id))
			}
		}
	}
	for t := range ix.tables {
		tb := &ix.tables[t]
		scratch = ix.rawHashes(tb, q, scratch)
		collect(tb, ix.key(scratch))
		if probes > 0 {
			for _, pk := range ix.probeKeys(tb, q, scratch, probes) {
				collect(tb, pk)
			}
		}
		if maxCandidates > 0 && len(out) >= maxCandidates {
			return out[:maxCandidates]
		}
	}
	return out
}

// probeKeys implements simplified multi-probe LSH: for each projection it
// scores the ±1 perturbation by the query's distance to the corresponding
// quantization boundary, then emits the `probes` cheapest single-coordinate
// perturbations.
func (ix *lshIndex) probeKeys(tb *lshTable, q []float64, base []int64, probes int) []uint64 {
	type perturb struct {
		idx   int
		delta int64
		cost  float64
	}
	ps := make([]perturb, 0, 2*ix.cfg.Hashes)
	for h := 0; h < ix.cfg.Hashes; h++ {
		x := (vec.Dot(tb.projs[h], q) + tb.offsets[h]) / ix.cfg.W
		frac := x - float64(base[h]) // in [0, 1)
		ps = append(ps,
			perturb{idx: h, delta: -1, cost: frac},
			perturb{idx: h, delta: +1, cost: 1 - frac},
		)
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].cost < ps[b].cost })
	if probes < len(ps) {
		ps = ps[:probes]
	}
	keys := make([]uint64, 0, len(ps))
	tmp := make([]int64, len(base))
	for _, p := range ps {
		copy(tmp, base)
		tmp[p.idx] += p.delta
		keys = append(keys, ix.key(tmp))
	}
	return keys
}

// bucketOf returns, per table, the bucket key q falls into. The PIR-based
// baselines use these as block addresses to retrieve privately.
func (ix *lshIndex) bucketOf(q []float64) []uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	keys := make([]uint64, len(ix.tables))
	scratch := make([]int64, 0, ix.cfg.Hashes)
	for t := range ix.tables {
		scratch = ix.rawHashes(&ix.tables[t], q, scratch)
		keys[t] = ix.key(scratch)
	}
	return keys
}

// bucketMap exposes a table's bucket map (read-only) so baselines can lay
// buckets out as PIR blocks.
func (ix *lshIndex) bucketMap(t int) map[uint64][]int32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tables[t].buckets
}

func clustered(seed uint64, n, dim, clusters int) [][]float64 {
	r := rng.NewSeeded(seed)
	centers := make([][]float64, clusters)
	for i := range centers {
		centers[i] = rng.GaussianVec(r, dim, 8)
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = vec.Add(nil, centers[r.IntN(clusters)], rng.GaussianVec(r, dim, 1))
	}
	return out
}

func TestLSHConfigValidation(t *testing.T) {
	if _, err := newLSH(lshConfig{Dim: 0}); err == nil {
		t.Fatal("expected error for dim 0")
	}
}

func TestLSHDefaults(t *testing.T) {
	ix, err := newLSH(lshConfig{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.tables) != 8 {
		t.Fatalf("default tables = %d", len(ix.tables))
	}
}

func TestLSHSelfRetrieval(t *testing.T) {
	// An indexed vector must appear in its own candidate set.
	data := clustered(1, 500, 16, 5)
	ix, err := newLSH(lshConfig{Dim: 16, Tables: 8, Hashes: 8, W: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		ix.insert(i, v)
	}
	for i := 0; i < 100; i++ {
		cands := ix.candidates(data[i], 0, 0)
		found := false
		for _, c := range cands {
			if c == i {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("vector %d missing from its own bucket", i)
		}
	}
}

func TestLSHNearNeighborsRetrieved(t *testing.T) {
	// Most true near neighbors should land in the candidate union — the
	// property the RS-SANN/PRI-ANN filter depends on.
	const n, dim, k = 3000, 16, 10
	data := clustered(2, n, dim, 15)
	ix, err := newLSH(lshConfig{Dim: dim, Tables: 10, Hashes: 6, W: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		ix.insert(i, v)
	}
	r := rng.NewSeeded(3)
	var recall float64
	const queries = 40
	for qi := 0; qi < queries; qi++ {
		q := vec.Add(nil, data[r.IntN(n)], rng.GaussianVec(r, dim, 0.3))
		cands := ix.candidates(q, 4, 0)
		// Exact k-NN among all points.
		type pair struct {
			id int
			d  float64
		}
		all := make([]pair, n)
		for i, v := range data {
			all[i] = pair{i, vec.SqDist(v, q)}
		}
		sort.Slice(all, func(a, b int) bool { return all[a].d < all[b].d })
		want := map[int]bool{}
		for _, p := range all[:k] {
			want[p.id] = true
		}
		hit := 0
		for _, c := range cands {
			if want[c] {
				hit++
			}
		}
		recall += float64(hit) / k
	}
	recall /= queries
	if recall < 0.7 {
		t.Fatalf("candidate recall = %.3f, want ≥ 0.7", recall)
	}
}

func TestLSHMultiProbeExpandsCandidates(t *testing.T) {
	data := clustered(4, 2000, 12, 10)
	ix, err := newLSH(lshConfig{Dim: 12, Tables: 4, Hashes: 10, W: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		ix.insert(i, v)
	}
	r := rng.NewSeeded(5)
	growCount := 0
	for qi := 0; qi < 20; qi++ {
		q := vec.Add(nil, data[r.IntN(len(data))], rng.GaussianVec(r, 12, 0.5))
		exact := len(ix.candidates(q, 0, 0))
		probed := len(ix.candidates(q, 6, 0))
		if probed < exact {
			t.Fatalf("multi-probe shrank candidates: %d vs %d", probed, exact)
		}
		if probed > exact {
			growCount++
		}
	}
	if growCount == 0 {
		t.Fatal("multi-probe never expanded any candidate set")
	}
}

func TestLSHMaxCandidatesTruncates(t *testing.T) {
	data := clustered(6, 1000, 8, 1) // one cluster: huge buckets
	ix, err := newLSH(lshConfig{Dim: 8, Tables: 4, Hashes: 2, W: 50, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		ix.insert(i, v)
	}
	cands := ix.candidates(data[0], 0, 37)
	if len(cands) > 37 {
		t.Fatalf("maxCandidates ignored: %d", len(cands))
	}
}

func TestLSHCandidatesDeduplicated(t *testing.T) {
	data := clustered(7, 300, 8, 2)
	ix, err := newLSH(lshConfig{Dim: 8, Tables: 12, Hashes: 4, W: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		ix.insert(i, v)
	}
	cands := ix.candidates(data[0], 2, 0)
	seen := map[int]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %d", c)
		}
		seen[c] = true
	}
}

func TestLSHBucketOfStable(t *testing.T) {
	ix, err := newLSH(lshConfig{Dim: 6, Tables: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := rng.Gaussian(rng.NewSeeded(9), nil, 6)
	a := ix.bucketOf(q)
	b := ix.bucketOf(q)
	if len(a) != 3 {
		t.Fatalf("bucketOf returned %d keys", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("bucketOf not deterministic")
		}
	}
}

func TestLSHConcurrentInsert(t *testing.T) {
	data := clustered(10, 1000, 8, 4)
	ix, err := newLSH(lshConfig{Dim: 8, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(data); i += 8 {
				ix.insert(i, data[i])
			}
		}(w)
	}
	wg.Wait()
	if ix.size() != len(data) {
		t.Fatalf("size = %d, want %d", ix.size(), len(data))
	}
}

func TestLSHDimMismatchPanics(t *testing.T) {
	ix, err := newLSH(lshConfig{Dim: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"insert":     func() { ix.insert(0, make([]float64, 3)) },
		"candidates": func() { ix.candidates(make([]float64, 5), 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
