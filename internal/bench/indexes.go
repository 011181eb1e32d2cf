package bench

import (
	"time"

	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/dcpe"
	"ppanns/internal/index"
	"ppanns/internal/lsh"
	"ppanns/internal/nsg"
	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// Indexes is the index-backend ablation: Section V-A notes the
// privacy-preserving index can swap HNSW for other proximity graphs (NSG),
// and the paper's survey names inverted files, hashing and linear scan as
// the alternatives proximity graphs beat. This experiment runs the *filter
// phase* over SAP ciphertexts with a flat-scan floor, every serving backend
// of internal/index, and two comparison points built straight from their
// own packages — E2LSH (internal/lsh) and NSG (internal/nsg) — and
// compares recall/QPS, justifying the paper's choice of HNSW empirically.
func Indexes(cfg Config) error {
	cfg = cfg.withDefaults()
	names := cfg.Datasets
	if len(names) == 0 {
		names = []string{"sift", "deep"}
	}
	cfg.printf("# Index-backend ablation — filter phase over SAP ciphertexts (k=%d)\n", cfg.K)
	for _, name := range names {
		d, err := dataset.ByName(name, cfg.N, cfg.Queries, cfg.Seed)
		if err != nil {
			return err
		}
		beta, err := core.CalibrateBeta(d.Train, d.Queries, cfg.K, 0.5, cfg.Seed)
		if err != nil {
			return err
		}
		key, err := dcpe.KeyGen(rng.NewSeeded(cfg.Seed^0x1de), d.Dim, 1024, beta)
		if err != nil {
			return err
		}
		encTrain := make([][]float64, len(d.Train))
		for i, v := range d.Train {
			encTrain[i] = key.Encrypt(v)
		}
		encQueries := make([][]float64, len(d.Queries))
		for i, q := range d.Queries {
			encQueries[i] = key.Encrypt(q)
		}
		gt := d.GroundTruth(cfg.K)

		cfg.printf("\n## %s (n=%d, β=%.3g; recall ceiling set by DCPE noise ≈ 0.5)\n",
			d.Name, len(d.Train), beta)
		cfg.printf("%-12s %12s %12s %14s\n", "backend", "recall@10", "QPS", "build(s)")

		run := func(label string, build func() (func(q []float64) []resultheap.Item, error)) error {
			start := time.Now()
			search, err := build()
			if err != nil {
				return err
			}
			buildTime := time.Since(start)
			got := make([][]int, len(encQueries))
			start = time.Now()
			for i, q := range encQueries {
				items := search(q)
				ids := make([]int, len(items))
				for j, it := range items {
					ids[j] = it.ID
				}
				got[i] = ids
			}
			elapsed := time.Since(start)
			cfg.printf("%-12s %12.3f %12.1f %14.2f\n", label,
				dataset.MeanRecall(got, gt),
				float64(len(encQueries))/elapsed.Seconds(),
				buildTime.Seconds())
			return nil
		}

		if err := run("flat-scan", func() (func([]float64) []resultheap.Item, error) {
			return func(q []float64) []resultheap.Item {
				var res resultheap.Pool
				for id, v := range encTrain {
					res.Offer(int32(id), vec.SqDist(q, v), cfg.K)
				}
				return res.AppendItems(nil, cfg.K)
			}, nil
		}); err != nil {
			return err
		}

		// Every serving backend through the same SecureIndex interface, with
		// the search effort ef the comparison points below also get.
		ef := 8 * cfg.K
		for _, name := range index.Names() {
			if err := run(name, func() (func([]float64) []resultheap.Item, error) {
				ix, err := index.BuildOver(name, vec.DatasetFromSlices(encTrain), nil, index.Options{Seed: cfg.Seed})
				if err != nil {
					return nil, err
				}
				return func(q []float64) []resultheap.Item { return ix.SearchInto(nil, q, cfg.K, ef) }, nil
			}); err != nil {
				return err
			}
		}

		// E2LSH as a filter: the multi-probe candidate union, ranked by
		// distance. Fewer, shorter hashes than the package defaults, because
		// the filter wants recall (the DCE refine restores precision) and
		// multi-probe makes short hashes cheap to widen: one extra bucket per
		// 8 beam slots, clamped to [Hashes, 2·Hashes] (the probe generator
		// emits at most 2·Hashes single-coordinate perturbations).
		if err := run("lsh", func() (func([]float64) []resultheap.Item, error) {
			const tables, hashes = 12, 8
			ix, err := lsh.New(lsh.Config{Dim: d.Dim, Tables: tables, Hashes: hashes, W: calibrateW(encTrain, cfg.Seed), Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			for id, v := range encTrain {
				ix.Insert(id, v)
			}
			probes := min(max(ef/8, hashes), 2*hashes)
			return func(q []float64) []resultheap.Item {
				var res resultheap.Pool
				for _, id := range ix.Candidates(q, probes, 0) {
					res.Offer(int32(id), vec.SqDist(q, encTrain[id]), cfg.K)
				}
				return res.AppendItems(nil, cfg.K)
			}, nil
		}); err != nil {
			return err
		}

		if err := run("nsg", func() (func([]float64) []resultheap.Item, error) {
			g, err := nsg.Build(encTrain, nsg.Config{Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			return func(q []float64) []resultheap.Item { return g.SearchInto(nil, q, cfg.K, ef) }, nil
		}); err != nil {
			return err
		}
	}
	cfg.printf("\n(expected shape: graphs dominate IVF which dominates flat scan at matched recall,\n")
	cfg.printf(" reproducing the survey result behind the paper's choice of HNSW)\n")
	return nil
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
