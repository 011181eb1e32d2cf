package core

import (
	"fmt"

	"ppanns/internal/dce"
	"ppanns/internal/index"
	"ppanns/internal/pq"
)

// Split partitions the encrypted database into n shard databases by
// striping external ids: global id g lands on shard g % n at local
// position g / n. The stripe is the id-remapping contract the
// scatter-gather tier (internal/shard) relies on — it is a pure-arithmetic
// bijection, and it stays valid under coordinator-routed inserts because
// appending global id G (the current total, tombstones included) always
// lands on shard G % n exactly when that shard holds G / n records.
//
// Every shard receives a copy of its stripe of the DCE ciphertext arena
// and, when present, of the PQ code rows (the PQ codebook is shared, not
// retrained, since it was fit on the full corpus), plus a freshly built
// filter index over the stripe's SAP vectors, recovered from the source
// index via SecureIndex.Vector. Tombstoned ids keep their slots — the
// shard index is built with a nil row, a dead slot, at each — so local ids
// stay dense and the arithmetic mapping never shifts.
//
// opts configures the per-shard index rebuilds; zero values select the
// backend's documented defaults, Dim is filled in from the database, and
// a non-zero Seed is decorrelated per shard. The source database is not
// modified.
func (e *EncryptedDatabase) Split(n int, opts index.Options) ([]*EncryptedDatabase, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: non-positive shard count %d", n)
	}
	total := e.DCE.Len()
	if n > total {
		return nil, fmt.Errorf("core: cannot split %d vectors across %d shards", total, n)
	}
	opts.Dim = e.Dim

	shards := make([]*EncryptedDatabase, n)
	for s := 0; s < n; s++ {
		cnt := (total - s + n - 1) / n // |{g ∈ [0, total) : g ≡ s (mod n)}|
		vecs := make([][]float64, cnt)
		store := dce.NewCiphertextStoreN(e.DCE.CtDim(), cnt)
		for local := range vecs {
			g := local*n + s
			if !e.DCE.Has(g) {
				store.Delete(local)
				continue
			}
			v, ok := e.Index.Vector(g)
			if !ok {
				return nil, fmt.Errorf("core: %s index cannot recover the SAP vector of id %d", e.Backend, g)
			}
			vecs[local] = v
			copy(store.Record(local), e.DCE.Record(g))
		}

		o := opts
		if o.Seed != 0 {
			o.Seed = opts.Seed + uint64(s) + 1
		}
		idx, err := index.Build(e.Backend, vecs, o)
		if err != nil {
			return nil, fmt.Errorf("core: building %s index for shard %d: %w", e.Backend, s, err)
		}
		if idx.Len() != store.Live() {
			return nil, fmt.Errorf("core: shard %d index holds %d live vectors, ciphertext store %d",
				s, idx.Len(), store.Live())
		}
		shards[s] = &EncryptedDatabase{
			Dim:     e.Dim,
			Backend: e.Backend,
			Index:   idx,
			DCE:     store,
		}

		// The compressed filter tier shards with the data: the codebook was
		// trained on the full corpus, so it stays valid for any stripe and
		// is shared (it is immutable after training); only the code rows are
		// re-gathered into local-id order, dead rows zeroed like a fold.
		if e.PQ != nil {
			m := e.PQ.Book.M()
			raw := make([]byte, cnt*m)
			for local := 0; local < cnt; local++ {
				if g := local*n + s; e.DCE.Has(g) {
					copy(raw[local*m:(local+1)*m], e.PQ.Codes.Row(g))
				}
			}
			codes, err := pq.StoreFromRaw(m, raw)
			if err != nil {
				return nil, fmt.Errorf("core: gathering PQ codes for shard %d: %w", s, err)
			}
			shards[s].PQ = &pq.Store{Book: e.PQ.Book, Codes: codes, TrainedOn: e.PQ.TrainedOn, Cfg: e.PQ.Cfg}
		}
	}
	return shards, nil
}
