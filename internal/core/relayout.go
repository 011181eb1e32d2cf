package core

import (
	"fmt"
	"math"
	"runtime"

	"ppanns/internal/index"
	"ppanns/internal/par"
	"ppanns/internal/pq"
	"ppanns/internal/vec"
)

// gather is the one re-layout of a database. The serving tier's fold,
// offline Compacted and Split differ only in their id map and their index
// step, and all three run through it.
//
// Position j of the result holds source position ids[j]. When ids[j] < 0
// or names a dead record, position j is a dead slot: a zeroed SAP row, a
// zeroed ciphertext record and a zeroed PQ code row. gather writes -1 into
// ids at every such position, so the map every column copies by is the
// one the liveness was read by.
//
// gather copies the SAP rows, the ciphertext records and, when the source
// carries a PQ tier, the code rows under the shared codebook, into
// private arenas, and build makes the filter index over the gathered SAP
// column, which the index reads in place; retraining is the caller's step
// (foldPQ). The result is checked once: the index must hold exactly the
// live records of the store.
func (e *EncryptedDatabase) gather(ids []int, build func(rows *vec.Dataset, live []bool) (index.SecureIndex, error)) (*EncryptedDatabase, error) {
	for j, id := range ids {
		if id < 0 || !e.DCE.Has(id) {
			ids[j] = -1
		}
	}
	sap, store := e.SAP.Gather(ids), e.DCE.Gather(ids)
	idx, err := build(sap, store.LiveMask())
	if err != nil {
		return nil, fmt.Errorf("building %s index: %w", e.Backend, err)
	}
	if idx.Len() != store.Live() {
		return nil, fmt.Errorf("%s index holds %d live vectors, ciphertext store %d", e.Backend, idx.Len(), store.Live())
	}
	ne := &EncryptedDatabase{Dim: e.Dim, Backend: e.Backend, Index: idx, SAP: sap, DCE: store}
	if e.PQ != nil {
		ne.PQ = &pq.Store{Book: e.PQ.Book, Codes: e.PQ.Codes.Gather(ids), TrainedOn: e.PQ.TrainedOn, Cfg: e.PQ.Cfg}
	}
	return ne, nil
}

// clone returns a copy of the database whose three column headers are its
// own, sharing their arenas: appendRow on the clone writes past the
// receiver's rows and leaves the receiver's Len and rows as they were.
// This is the serving tier's copy-on-write publication (see vec.Rows).
func (e *EncryptedDatabase) clone() *EncryptedDatabase {
	ne := *e
	sap, store := *e.SAP, *e.DCE
	ne.SAP, ne.DCE = &sap, &store
	if e.PQ != nil {
		pqs, codes := *e.PQ, *e.PQ.Codes
		pqs.Codes = &codes
		ne.PQ = &pqs
	}
	return &ne
}

// appendRow appends one record to every column: the SAP row, the DCE
// record and, with a PQ tier, the codebook's encoding of the SAP row. It
// is the one append path: live inserts, WAL replay and both fold grafts
// run through it, so a code row is always derived from its SAP row under
// the database's own codebook, never carried from another.
func (e *EncryptedDatabase) appendRow(sap, rec []float64) {
	e.SAP.Append(sap)
	e.DCE.AppendRecord(rec)
	if e.PQ != nil {
		e.PQ.Book.EncodeInto(e.PQ.Codes.AppendZero(math.MaxInt), sap)
	}
}

// foldPQ is the PQ step of a compaction, online or offline, on a gathered
// database ne. The gathered codes under the shared codebook stand until
// the id space has outgrown the codebook's training set (NeedsRetrain's
// deterministic doubling rule). Then the whole tier retrains on the live
// rows of ne's SAP column under the retained config, dead rows zero, and
// old codes mean nothing. With no live row there is nothing to train on,
// and the codebook is kept.
func foldPQ(ne *EncryptedDatabase) (err error) {
	if ne.PQ == nil || !ne.PQ.NeedsRetrain(ne.Len()) || ne.Live() == 0 {
		return nil
	}
	vecs := make([][]float64, ne.Len())
	for id := range vecs {
		if ne.DCE.Has(id) {
			vecs[id] = ne.SAP.At(id)
		}
	}
	if ne.PQ, err = pq.Build(vecs, ne.PQ.Cfg); err != nil {
		return fmt.Errorf("PQ retrain: %w", err)
	}
	return nil
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
	ne, err := e.gather(ids, e.Index.Rebuild)
	if err == nil {
		err = foldPQ(ne)
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
// mapping never shifts. Each shard gets its stripe of the SAP column and of
// the ciphertext arena, and a freshly built filter index over its SAP
// stripe. When present, the PQ code rows are gathered too, under the
// shared codebook: it was fit on the full corpus, so it is never retrained
// here, and PQ distances stay comparable across stripes.
//
// opts configures the per-shard index builds; zero values select the
// backend's documented defaults. A non-zero Seed is decorrelated per shard
// (shard s builds with Seed+s+1); Seed 0 builds every shard with seed 0.
// The source database is not modified. The stripes are built side by side:
// each is a function of its rows and seed, so no byte depends on core count.
func (e *EncryptedDatabase) Split(n int, opts index.Options) ([]*EncryptedDatabase, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: non-positive shard count %d", n)
	}
	total := e.DCE.Len()
	if n > total {
		return nil, fmt.Errorf("core: cannot split %d vectors across %d shards", total, n)
	}

	shards, errs := make([]*EncryptedDatabase, n), make([]error, n)
	par.Spans(runtime.GOMAXPROCS(0), n, 1, func(_, s, _ int) {
		ids := make([]int, (total-s+n-1)/n) // |{g ∈ [0, total) : g ≡ s (mod n)}|
		for local := range ids {
			ids[local] = local*n + s
		}
		o := opts
		if o.Seed != 0 {
			o.Seed = opts.Seed + uint64(s) + 1
		}
		shards[s], errs[s] = e.gather(ids, func(rows *vec.Dataset, live []bool) (index.SecureIndex, error) {
			return index.BuildOver(e.Backend, rows, live, o)
		})
	})
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, err)
		}
	}
	return shards, nil
}
