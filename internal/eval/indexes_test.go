package eval

import (
	"fmt"
	"testing"

	"ppanns/internal/dcpe"
	"ppanns/internal/index"
	"ppanns/internal/lsh"
	"ppanns/internal/nsg"
	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// TestIndexes is the index-backend ablation: Section V-A notes the
// privacy-preserving index can swap HNSW for other proximity graphs (NSG),
// and the paper's survey names inverted files, hashing and linear scan as
// the alternatives proximity graphs beat. It runs the filter phase over
// SAP ciphertexts with a flat-scan floor, every serving backend of
// internal/index, and two comparison points built straight from their own
// packages — E2LSH (internal/lsh) and NSG (internal/nsg) — in that order.
func TestIndexes(t *testing.T) {
	s := start(t)
	var tb table
	tb.printf("# Index-backend ablation — filter phase over SAP ciphertexts (k=%d)\n", s.k)
	for _, d := range s.datasets(t, "sift", "deep") {
		beta := s.beta(t, d)
		key, err := dcpe.KeyGen(rng.NewSeeded(s.seed^0x1de), d.Dim, 1024, beta)
		if err != nil {
			t.Fatal(err)
		}
		encTrain := make([][]float64, len(d.Train))
		for i, v := range d.Train {
			encTrain[i] = key.Encrypt(v)
		}
		encQueries := make([][]float64, len(d.Queries))
		for i, q := range d.Queries {
			encQueries[i] = key.Encrypt(q)
		}

		tb.printf("\n## %s (n=%d, β=%.3g; recall ceiling set by DCPE noise ≈ 0.5)\n", d.Name, len(d.Train), beta)
		tb.printf("%-12s %12s\n", "backend", fmt.Sprintf("recall@%d", s.k))
		row := func(label string, search func(q []float64) []resultheap.Item) {
			r := recall(t, d, s.k, len(encQueries), func(i int) ([]int, error) {
				items := search(encQueries[i])
				ids := make([]int, len(items))
				for j, it := range items {
					ids[j] = it.ID
				}
				return ids, nil
			})
			tb.printf("%-12s %12.3f\n", label, r)
		}

		row("flat-scan", func(q []float64) []resultheap.Item {
			var res resultheap.Pool
			for id, v := range encTrain {
				res.Offer(int32(id), vec.SqDist(q, v), s.k)
			}
			return res.AppendItems(nil, s.k)
		})

		// Every serving backend through the same SecureIndex interface, with
		// the search effort ef the comparison points below also get.
		ef := 8 * s.k
		for _, name := range index.Names() {
			ix, err := index.BuildOver(name, vec.DatasetFromSlices(encTrain), nil, index.Options{Seed: s.seed})
			if err != nil {
				t.Fatal(err)
			}
			row(name, func(q []float64) []resultheap.Item { return ix.SearchInto(nil, q, s.k, ef) })
		}

		// E2LSH as a filter: the multi-probe candidate union, ranked by
		// distance. Fewer, shorter hashes than the package defaults, because
		// the filter wants recall (the DCE refine restores precision) and
		// multi-probe makes short hashes cheap to widen: one extra bucket per
		// 8 beam slots, clamped to [Hashes, 2·Hashes] (the probe generator
		// emits at most 2·Hashes single-coordinate perturbations).
		const tables, hashes = 12, 8
		lx, err := lsh.New(lsh.Config{Dim: d.Dim, Tables: tables, Hashes: hashes, W: calibrateW(encTrain, s.seed), Seed: s.seed})
		if err != nil {
			t.Fatal(err)
		}
		for id, v := range encTrain {
			lx.Insert(id, v)
		}
		probes := min(max(ef/8, hashes), 2*hashes)
		row("lsh", func(q []float64) []resultheap.Item {
			var res resultheap.Pool
			for _, id := range lx.Candidates(q, probes, 0) {
				res.Offer(int32(id), vec.SqDist(q, encTrain[id]), s.k)
			}
			return res.AppendItems(nil, s.k)
		})

		g, err := nsg.Build(encTrain, nsg.Config{Seed: s.seed})
		if err != nil {
			t.Fatal(err)
		}
		row("nsg", func(q []float64) []resultheap.Item { return g.SearchInto(nil, q, s.k, ef) })
	}
	s.check(t, "indexes", &tb)
}

// calibrateW estimates an E2LSH quantization width from the data scale: W
// is half the mean pairwise distance over a deterministic sample, which puts
// near neighbors well inside one quantization cell while keeping far points
// apart. E2LSH's fixed default (4) assumes unit-scale data and collapses on
// SAP ciphertexts, whose coordinates are scaled by S≈1024.
func calibrateW(vectors [][]float64, seed uint64) float64 {
	if len(vectors) < 2 {
		return 4
	}
	r := rng.NewSeeded(seed ^ 0x3a7)
	const pairs = 512
	var sum float64
	var cnt int
	for i := 0; i < pairs; i++ {
		a := r.IntN(len(vectors))
		b := r.IntN(len(vectors))
		if a == b {
			continue
		}
		sum += vec.Dist(vectors[a], vectors[b])
		cnt++
	}
	if cnt == 0 || sum == 0 {
		return 4
	}
	return sum / float64(cnt) / 2
}
