package bench

import (
	"time"

	"ppanns/internal/dataset"
	"ppanns/internal/dcpe"
	"ppanns/internal/index"
	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// Indexes is the index-backend ablation: Section V-A notes the
// privacy-preserving index can swap HNSW for other proximity graphs (NSG),
// and the paper's survey names inverted files and linear scan as the
// alternatives proximity graphs beat. This experiment runs the *filter
// phase* over SAP ciphertexts with every backend registered in
// internal/index (plus a flat-scan floor) and compares recall/QPS,
// justifying the paper's choice of HNSW empirically.
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
		beta, err := CalibrateBeta(d, cfg.K, 0.5, cfg.Seed)
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
				res := resultheap.NewMaxDistHeap(cfg.K + 1)
				for id, v := range encTrain {
					dd := vec.SqDist(q, v)
					if res.Len() < cfg.K {
						res.Push(id, dd)
					} else if dd < res.Top().Dist {
						res.Pop()
						res.Push(id, dd)
					}
				}
				return res.SortedAscending()
			}, nil
		}); err != nil {
			return err
		}

		// Every registered backend through the same SecureIndex interface.
		for _, name := range index.Names() {
			name := name
			if err := run(name, func() (func([]float64) []resultheap.Item, error) {
				ix, err := index.Build(name, encTrain, index.Options{Dim: d.Dim, Seed: cfg.Seed})
				if err != nil {
					return nil, err
				}
				return func(q []float64) []resultheap.Item { return ix.SearchInto(nil, q, cfg.K, 8*cfg.K) }, nil
			}); err != nil {
				return err
			}
		}
	}
	cfg.printf("\n(expected shape: graphs dominate IVF which dominates flat scan at matched recall,\n")
	cfg.printf(" reproducing the survey result behind the paper's choice of HNSW)\n")
	return nil
}
