package core

import (
	"fmt"
	"slices"

	"ppanns/internal/index"
	"ppanns/internal/pq"
)

// gather is the one re-layout of a database. The serving tier's fold,
// offline Compacted and Split differ only in their id map and their index
// step, and all three run through it.
//
// Position j of the result holds source position ids[j]. When ids[j] < 0
// or names a dead record, position j is a dead slot: a nil row, a zeroed
// ciphertext record and a zeroed PQ code row. gather writes -1 into ids at
// every such position, so the map the stores copy by is the one the rows
// were gathered by. The rows come from the SAP column.
//
// build makes the filter index over the gathered rows, and its row arena
// is the result's SAP column. gather then copies the ciphertext records
// and, when the source carries a PQ tier, the code rows under the shared
// codebook, into private arenas; retraining is the caller's step (foldPQ).
// The result is checked once: the index must hold exactly the live records
// of the store.
func (e *EncryptedDatabase) gather(ids []int, build func(vecs [][]float64) (index.SecureIndex, error)) (*EncryptedDatabase, [][]float64, error) {
	vecs := make([][]float64, len(ids))
	for j, id := range ids {
		if id < 0 || !e.DCE.Has(id) {
			ids[j] = -1
			continue
		}
		vecs[j] = e.SAP.At(id)
	}
	idx, err := build(vecs)
	if err != nil {
		return nil, nil, fmt.Errorf("building %s index: %w", e.Backend, err)
	}
	store := e.DCE.Gather(ids)
	if idx.Len() != store.Live() {
		return nil, nil, fmt.Errorf("%s index holds %d live vectors, ciphertext store %d", e.Backend, idx.Len(), store.Live())
	}
	ne := &EncryptedDatabase{Dim: e.Dim, Backend: e.Backend, Index: idx, SAP: idx.Rows(), DCE: store}
	if e.PQ != nil {
		ne.PQ = &pq.Store{Book: e.PQ.Book, Codes: e.PQ.Codes.Gather(ids), TrainedOn: e.PQ.TrainedOn, Cfg: e.PQ.Cfg}
	}
	return ne, vecs, nil
}

// foldPQ is the PQ step of a compaction, online or offline: vecs are the
// rows ne was gathered from. The gathered codes under the shared codebook
// stand until the id space has outgrown the codebook's training set
// (NeedsRetrain's deterministic doubling rule). Then the whole tier
// retrains on the live rows of vecs under the retained config, dead rows
// zero, and old codes mean nothing. With no live row there is nothing to
// train on, and the codebook is kept.
func foldPQ(ne *EncryptedDatabase, vecs [][]float64) (retrained bool, err error) {
	if ne.PQ == nil || !ne.PQ.NeedsRetrain(len(vecs)) || !slices.ContainsFunc(vecs, func(v []float64) bool { return v != nil }) {
		return false, nil
	}
	if ne.PQ, err = pq.Build(vecs, ne.PQ.Cfg); err != nil {
		return false, fmt.Errorf("PQ retrain: %w", err)
	}
	return true, nil
}

// Compacted returns an offline-compacted copy of the database: the gather
// over the dense map of live ids. Every tombstoned record is dropped and
// the survivors are renumbered 0..Live()-1 in their old order. The filter
// index is rebuilt under the receiver's build configuration, and the PQ
// tier, when present, is folded as an online compaction folds it. The
// receiver is unmodified.
//
// Unlike the serving tier's online compaction — which must keep ids stable
// because shard striping and user-visible ids depend on positions — the
// offline form renumbers, genuinely shrinking the database. It is therefore
// only safe on a database at rest (the dbtool compact contract): after
// compacting, previously handed-out ids are meaningless and any shard
// striping must be re-derived by re-splitting the compacted file.
func (e *EncryptedDatabase) Compacted() (*EncryptedDatabase, error) {
	ids := make([]int, 0, e.DCE.Live())
	for id := range e.DCE.Len() {
		if e.DCE.Has(id) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: offline compaction: database has no live records")
	}
	ne, vecs, err := e.gather(ids, e.Index.Rebuild)
	if err == nil {
		_, err = foldPQ(ne, vecs)
	}
	if err != nil {
		return nil, fmt.Errorf("core: offline compaction: %w", err)
	}
	return ne, nil
}

// Split partitions the encrypted database into n shard databases by
// striping external ids: global id g lands on shard g % n at local
// position g / n. The stripe is the id-remapping contract the
// scatter-gather tier (internal/shard) relies on — it is a pure-arithmetic
// bijection, and it stays valid under coordinator-routed inserts because
// appending global id G (the current total, tombstones included) always
// lands on shard G % n exactly when that shard holds G / n records.
//
// Shard s is the gather over the map local ↦ local·n + s. A tombstoned id
// keeps its slot as a dead one, so local ids stay dense and the arithmetic
// mapping never shifts. Each shard gets its stripe of the ciphertext arena
// and a freshly built filter index over the stripe's rows of the SAP
// column. When present,
// the PQ code rows are gathered too, under the shared codebook: it was fit
// on the full corpus, so it is never retrained here, and PQ distances stay
// comparable across stripes.
//
// opts configures the per-shard index builds; zero values select the
// backend's documented defaults, and Dim is filled in from the database.
// A non-zero Seed is decorrelated per shard (shard s builds with
// Seed+s+1); Seed 0 builds every shard with seed 0. The source database is
// not modified.
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
	for s := range shards {
		ids := make([]int, (total-s+n-1)/n) // |{g ∈ [0, total) : g ≡ s (mod n)}|
		for local := range ids {
			ids[local] = local*n + s
		}
		o := opts
		if o.Seed != 0 {
			o.Seed = opts.Seed + uint64(s) + 1
		}
		shard, _, err := e.gather(ids, func(vecs [][]float64) (index.SecureIndex, error) {
			return index.Build(e.Backend, vecs, o)
		})
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, err)
		}
		shards[s] = shard
	}
	return shards, nil
}
