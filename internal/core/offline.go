package core

import (
	"fmt"
	"slices"

	"ppanns/internal/dce"
	"ppanns/internal/pq"
)

// Compacted returns an offline-compacted copy of the database: every
// tombstoned record is dropped entirely and the survivors are renumbered
// densely to 0..Live()-1 (relative order preserved), with the filter index
// rebuilt over the surviving SAP ciphertexts under the receiver's build
// configuration and the PQ tier, when present, folded as an online
// compaction folds it. The receiver is unmodified.
//
// Unlike the serving tier's online compaction — which must keep ids stable
// because shard striping and user-visible ids depend on positions — the
// offline form renumbers, genuinely shrinking the database. It is therefore
// only safe on a database at rest (the dbtool compact contract): after
// compacting, previously handed-out ids are meaningless and any shard
// striping must be re-derived by re-splitting the compacted file.
func (e *EncryptedDatabase) Compacted() (*EncryptedDatabase, error) {
	n := e.DCE.Len()
	ctDim := e.DCE.CtDim()
	vecs := make([][]float64, 0, e.DCE.Live())
	oldIDs := make([]int, 0, e.DCE.Live())
	for id := 0; id < n; id++ {
		if !e.DCE.Has(id) {
			continue
		}
		v, ok := e.Index.Vector(id)
		if !ok {
			return nil, fmt.Errorf("core: offline compaction: index has no vector for id %d", id)
		}
		vecs = append(vecs, v)
		oldIDs = append(oldIDs, id)
	}
	if len(vecs) == 0 {
		return nil, fmt.Errorf("core: offline compaction: database has no live records")
	}
	idx, err := e.Index.Rebuild(vecs)
	if err != nil {
		return nil, fmt.Errorf("core: offline compaction rebuild: %w", err)
	}
	if idx.Len() != len(vecs) {
		return nil, fmt.Errorf("core: offline compaction rebuild produced %d ids, want %d", idx.Len(), len(vecs))
	}
	// Dense repack of the ciphertext arena: record j of the new store is
	// record oldIDs[j] of the receiver, every slot live.
	rec := 4 * ctDim
	arena := make([]float64, len(oldIDs)*rec)
	live := make([]bool, len(oldIDs))
	for j, id := range oldIDs {
		copy(arena[j*rec:(j+1)*rec], e.DCE.Record(id))
		live[j] = true
	}
	store, err := dce.StoreFromRaw(ctDim, arena, live)
	if err != nil {
		return nil, fmt.Errorf("core: offline compaction: %w", err)
	}
	ne := &EncryptedDatabase{Dim: e.Dim, Backend: e.Backend, Index: idx, DCE: store}
	if e.PQ != nil {
		ne.PQ, _, err = foldPQ(e.PQ, vecs, func() *pq.CodeStore {
			codes := pq.NewCodeStoreN(e.PQ.Book.M(), len(oldIDs))
			for j, id := range oldIDs {
				copy(codes.Row(j), e.PQ.Codes.Row(id))
			}
			return codes
		})
		if err != nil {
			return nil, fmt.Errorf("core: offline compaction: %w", err)
		}
	}
	return ne, nil
}

// foldPQ is the PQ step of a compaction, online or offline, over vecs, the
// SAP vectors of the compacted id space (nil at a dead id). The codebook is
// reused — repack carries the surviving code rows over, like the
// ciphertext arena — until the id space has outgrown its training set
// (NeedsRetrain's deterministic doubling rule), at which point the whole
// tier retrains on the live rows of vecs under the retained config, dead
// rows zero, and old codes mean nothing. With no live row there is nothing
// to train on, and the codebook is kept.
func foldPQ(old *pq.Store, vecs [][]float64, repack func() *pq.CodeStore) (pqs *pq.Store, retrained bool, err error) {
	if old.NeedsRetrain(len(vecs)) && slices.ContainsFunc(vecs, func(v []float64) bool { return v != nil }) {
		pqs, err = pq.Build(vecs, old.Cfg)
		if err != nil {
			return nil, false, fmt.Errorf("PQ retrain: %w", err)
		}
		return pqs, true, nil
	}
	return &pq.Store{Book: old.Book, Codes: repack(), TrainedOn: old.TrainedOn, Cfg: old.Cfg}, false, nil
}
