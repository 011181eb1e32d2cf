package bench

import (
	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/rng"
)

// Maintain exercises Section V-D: interleaved inserts and deletes against
// a live index, reporting recall stability as the database churns.
func Maintain(cfg Config) error {
	cfg = cfg.withDefaults()
	names := cfg.Datasets
	if len(names) == 0 {
		names = []string{"deep"}
	}
	cfg.printf("# Section V-D — index maintenance under churn (k=%d)\n", cfg.K)
	for _, name := range names {
		// Generate base + a pool of future inserts in one corpus so ground
		// truth stays consistent.
		total, err := dataset.ByName(name, cfg.N+cfg.N/2, cfg.Queries, cfg.Seed)
		if err != nil {
			return err
		}
		base := total.Train[:cfg.N]
		pool := total.Train[cfg.N:]

		beta, err := core.CalibrateBeta(total.Train, total.Queries, cfg.K, 0.5, cfg.Seed)
		if err != nil {
			return err
		}
		owner, err := core.NewDataOwner(core.Params{
			Dim: total.Dim, Beta: beta, Seed: cfg.Seed,
		})
		if err != nil {
			return err
		}
		edb, err := owner.EncryptDatabase(base)
		if err != nil {
			return err
		}
		server, err := core.NewServer(edb)
		if err != nil {
			return err
		}
		user, err := core.NewUser(owner.UserKey())
		if err != nil {
			return err
		}

		live := make(map[int][]float64, len(base))
		for i, v := range base {
			live[i] = v
		}
		r := rng.NewSeeded(cfg.Seed ^ 0x3a13)

		measure := func() (float64, error) {
			var recall float64
			for _, q := range total.Queries {
				tok, err := user.Query(q)
				if err != nil {
					return 0, err
				}
				got, err := server.Search(tok, cfg.K, core.SearchOptions{KPrime: 16 * cfg.K, EfSearch: 16 * cfg.K})
				if err != nil {
					return 0, err
				}
				// Exact answer over the *live* set.
				ids := make([]int, 0, len(live))
				vecs := make([][]float64, 0, len(live))
				for id, v := range live {
					ids = append(ids, id)
					vecs = append(vecs, v)
				}
				exact := dataset.ExactKNN(vecs, q, cfg.K)
				want := make([]int, len(exact))
				for i, e := range exact {
					want[i] = ids[e]
				}
				recall += dataset.Recall(got, want)
			}
			return recall / float64(len(total.Queries)), nil
		}

		cfg.printf("\n## %s (n=%d, churn batches of %d)\n", name, cfg.N, cfg.N/10)
		cfg.printf("%-10s %10s %10s %12s\n", "batch", "inserts", "deletes", "recall@10")
		rec, err := measure()
		if err != nil {
			return err
		}
		cfg.printf("%-10d %10d %10d %12.3f\n", 0, 0, 0, rec)

		poolNext := 0
		for batch := 1; batch <= 5; batch++ {
			ins, del := 0, 0
			for op := 0; op < cfg.N/10; op++ {
				if r.Uint64()%2 == 0 && poolNext < len(pool) {
					payload, err := owner.EncryptVector(pool[poolNext])
					if err != nil {
						return err
					}
					id, err := server.Insert(payload)
					if err != nil {
						return err
					}
					live[id] = pool[poolNext]
					poolNext++
					ins++
				} else if len(live) > cfg.K*4 {
					// Delete a random live id.
					var victim int
					pick := int(r.Uint64() % uint64(len(live)))
					for id := range live {
						if pick == 0 {
							victim = id
							break
						}
						pick--
					}
					if err := server.Delete(victim); err != nil {
						return err
					}
					delete(live, victim)
					del++
				}
			}
			rec, err := measure()
			if err != nil {
				return err
			}
			cfg.printf("%-10d %10d %10d %12.3f\n", batch, ins, del, rec)
		}
	}
	cfg.printf("\n(expected: recall stays near the pre-churn level across batches)\n")
	return nil
}
