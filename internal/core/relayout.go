package core

import (
	"fmt"
	"math"
	"runtime"

	"ppanns/internal/index"
	"ppanns/internal/par"
	"ppanns/internal/pq"
)

// gather is the one re-layout of a database. The serving tier's fold,
// offline Compacted and Split differ only in the slots they keep and the
// ids those records carry after it, and all three run through it.
//
// Slot j of the result holds source slot slots[j] under id ids[j], in an
// id space of n. The caller passes live slots only, in slot order, so the
// result holds no dead row and its ids stay increasing.
//
// gather copies the SAP rows, the ciphertext records and, when the source
// carries a PQ tier, the code rows under the shared codebook, into
// private arenas, and the source index's Rebuild makes the filter index
// over the gathered SAP column under the source's build configuration (an
// HNSW graph's M, efConstruction and seed; an IVF index's trained
// quantizer), which the index reads in place; retraining PQ is the
// caller's step (foldPQ). The result is checked once: the index must hold
// exactly the records of the store.
func (e *EncryptedDatabase) gather(slots []int, ids []int32, n int) (*EncryptedDatabase, error) {
	sap, store := e.SAP.Gather(slots), e.DCE.Gather(slots)
	idx, err := e.Index.Rebuild(sap, ids)
	if err != nil {
		return nil, fmt.Errorf("building %s index: %w", e.Backend, err)
	}
	if idx.Len() != store.Len() {
		return nil, fmt.Errorf("%s index holds %d vectors, ciphertext store %d", e.Backend, idx.Len(), store.Len())
	}
	ne := &EncryptedDatabase{Dim: e.Dim, Backend: e.Backend, Index: idx, SAP: sap, DCE: store, ids: ids, n: n}
	if e.PQ != nil {
		ne.PQ = &pq.Store{Book: e.PQ.Book, Codes: e.PQ.Codes.Gather(slots), TrainedOn: e.PQ.TrainedOn, Cfg: e.PQ.Cfg}
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

// appendRow appends one record, under the next id, to every column: the
// SAP row, the DCE record, with a PQ tier the codebook's encoding of the
// SAP row, and the id. It is the one append path: live inserts, WAL replay
// and both fold grafts run through it, so a code row is always derived
// from its SAP row under the database's own codebook, never carried from
// another.
func (e *EncryptedDatabase) appendRow(sap, rec []float64) {
	e.SAP.Append(sap)
	e.DCE.AppendRecord(rec)
	if e.PQ != nil {
		e.PQ.Book.EncodeInto(e.PQ.Codes.AppendZero(math.MaxInt), sap)
	}
	e.ids = append(e.ids, int32(e.n))
	e.n++
}

// foldPQ is the PQ step of a compaction, online or offline, on a gathered
// database ne. The gathered codes under the shared codebook stand until
// the id space has outgrown the codebook's training set (NeedsRetrain's
// deterministic doubling rule). Then the whole tier retrains on ne's SAP
// column under the retained config, and old codes mean nothing. TrainedOn
// counts the id space, as the rule does. With no record there is nothing
// to train on, and the codebook is kept.
func foldPQ(ne *EncryptedDatabase) (err error) {
	if ne.PQ == nil || !ne.PQ.NeedsRetrain(ne.Len()) || ne.Live() == 0 {
		return nil
	}
	if ne.PQ, err = pq.Build(ne.SAP.Slices(), ne.PQ.Cfg); err != nil {
		return fmt.Errorf("PQ retrain: %w", err)
	}
	ne.PQ.TrainedOn = ne.Len()
	return nil
}

// Compacted returns an offline-compacted copy of the database: the gather
// of every slot, renumbered 0..Live()-1 in their old order, so the id
// space shrinks to the records held. The filter index is rebuilt under
// the receiver's build configuration, and the PQ tier, when present, is
// folded as an online compaction folds it. The receiver is unmodified.
//
// Unlike the serving tier's online compaction — which must keep ids stable
// because shard striping and user-visible ids depend on them — the offline
// form renumbers. It is therefore only safe on a database at rest (the
// dbtool compact contract): after compacting, previously handed-out ids
// are meaningless and any shard striping must be re-derived by
// re-splitting the compacted file.
func (e *EncryptedDatabase) Compacted() (*EncryptedDatabase, error) {
	live := e.Live()
	if live == 0 {
		return nil, fmt.Errorf("core: offline compaction: database has no live records")
	}
	slots, ids := make([]int, live), make([]int32, live)
	for j := range slots {
		slots[j], ids[j] = j, int32(j)
	}
	ne, err := e.gather(slots, ids, live)
	if err == nil {
		err = foldPQ(ne)
	}
	if err != nil {
		return nil, fmt.Errorf("core: offline compaction: %w", err)
	}
	return ne, nil
}

// Split partitions the encrypted database into n shard databases by
// striping ids: global id g lands on shard g % n as local id g / n. The
// stripe is the id-remapping contract the scatter-gather tier
// (internal/shard) relies on — it is a pure-arithmetic bijection, and it
// stays valid under coordinator-routed inserts because appending global
// id G (the current id space) always lands on shard G % n exactly when
// that shard's id space is G / n.
//
// Shard s is the gather of the slots whose id is s modulo n, each under
// its local id, in an id space of the local ids below the global one: a
// deleted id holds no row but keeps its local id, so the arithmetic
// mapping never shifts. Each shard gets its stripe of the SAP column and
// of the ciphertext arena, and a filter index over its SAP stripe, rebuilt
// under the source index's own configuration, as a fold rebuilds it: an
// HNSW stripe keeps the source's M, efConstruction and seed, and an IVF
// stripe shares the source's trained quantizer, so nothing is trained
// here. When present, the PQ code rows are gathered too, under the shared
// codebook, so PQ distances stay comparable across stripes. A one-stripe
// split of a database that holds no tombstone is therefore the database
// itself: it saves the same bytes.
//
// opts is ignored: a stripe's build parameters are the source's. The
// source database is not modified. The stripes are built side by side:
// each is a function of its rows, so no byte depends on core count.
func (e *EncryptedDatabase) Split(n int, opts index.Options) ([]*EncryptedDatabase, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: non-positive shard count %d", n)
	}
	total := e.Len()
	if n > total {
		return nil, fmt.Errorf("core: cannot split %d vectors across %d shards", total, n)
	}

	shards, errs := make([]*EncryptedDatabase, n), make([]error, n)
	par.Spans(runtime.GOMAXPROCS(0), n, 1, func(_, s, _ int) {
		var slots []int
		var ids []int32
		for slot, id := range e.ids {
			if int(id)%n == s {
				slots, ids = append(slots, slot), append(ids, id/int32(n))
			}
		}
		// |{g ∈ [0, total) : g ≡ s (mod n)}| local ids.
		shards[s], errs[s] = e.gather(slots, ids, (total-s+n-1)/n)
	})
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, err)
		}
	}
	return shards, nil
}
