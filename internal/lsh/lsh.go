// Package lsh implements Euclidean locality-sensitive hashing (E2LSH with
// p-stable Gaussian projections), the index underlying the RS-SANN and
// PRI-ANN baselines the paper compares against.
//
// Each of L tables hashes a vector with K concatenated quantized
// projections h_i(v) = ⌊(a_i·v + b_i)/W⌋; a query retrieves the union of
// its matching buckets (optionally probing neighboring buckets,
// multi-probe style) as the candidate set the baseline then refines.
package lsh

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"

	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// Config parameterizes an LSH index.
type Config struct {
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

func (c Config) withDefaults() (Config, error) {
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

type table struct {
	projs   [][]float64 // K rows of dim
	offsets []float64   // K offsets b_i ∈ [0, W)
	buckets map[uint64][]int32
}

// Index is a thread-safe E2LSH index over external integer ids.
type Index struct {
	cfg    Config
	seed   maphash.Seed
	mu     sync.RWMutex
	tables []table
	count  int
}

// New creates an empty LSH index.
func New(cfg Config) (*Index, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	r := rng.NewSeeded(cfg.Seed ^ 0x15a)
	ix := &Index{cfg: cfg, seed: maphash.MakeSeed()}
	ix.tables = make([]table, cfg.Tables)
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

// Len returns the number of indexed vectors.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.count
}

// rawHashes computes the K quantized projections of v in one table.
func (ix *Index) rawHashes(tb *table, v []float64, dst []int64) []int64 {
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
func (ix *Index) key(hashes []int64) uint64 {
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

// Insert indexes v under id. Safe for concurrent use with other Inserts.
func (ix *Index) Insert(id int, v []float64) {
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

// Candidates returns the deduplicated union of q's buckets across all
// tables, probing up to probes neighboring buckets per table (0 = exact
// bucket only). maxCandidates truncates the result (≤ 0 = unlimited).
func (ix *Index) Candidates(q []float64, probes, maxCandidates int) []int {
	if len(q) != ix.cfg.Dim {
		panic(fmt.Sprintf("lsh: querying %d-dim vector in %d-dim index", len(q), ix.cfg.Dim))
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	seen := make(map[int32]struct{})
	var out []int
	scratch := make([]int64, 0, ix.cfg.Hashes)
	collect := func(tb *table, key uint64) {
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
func (ix *Index) probeKeys(tb *table, q []float64, base []int64, probes int) []uint64 {
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

// BucketOf returns, per table, the bucket key q falls into. The PIR-based
// baselines use these as block addresses to retrieve privately.
func (ix *Index) BucketOf(q []float64) []uint64 {
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

// Buckets exposes a table's bucket map (read-only) so baselines can lay
// buckets out as PIR blocks.
func (ix *Index) Buckets(table int) map[uint64][]int32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.tables[table].buckets
}

// Tables returns the configured number of tables.
func (ix *Index) Tables() int { return len(ix.tables) }
