package dce

import (
	"fmt"
	"slices"

	"ppanns/internal/frame"
	"ppanns/internal/vec"
)

// CiphertextStore holds the DCE ciphertexts: every point owns one
// contiguous record
//
//	[ P1 | P2 | P3 | P4 ]   (4·ctDim float64s)
//
// in one vec.Rows arena, at the padded stride vec.PadStride(4·ctDim).
// DistanceComp(o, p, q) reads o's first two components and p's last two,
// so the layout puts each side's operands on adjacent cache lines: the
// refine phase's O(k′ log k) comparisons walk two contiguous ranges plus
// the (hot) trapdoor. Since ctDim is even for every real DCE key, every
// component starts on a cache-line boundary. The padding is purely an
// in-memory layout: Save and LoadStore speak the compact 4·ctDim-per-record
// representation, which keeps the database file's bytes independent of it.
//
// Records are addressed by id (0..Len()-1). A dead record is a tombstoned
// slot — Gather leaves it zeroed — and ids are never reused. Beside the
// arena the store keeps a liveness mask; both follow the copy-on-write
// publication discipline documented on vec.Rows. Views are slices into the
// arena (callers must not retain them across mutations).
type CiphertextStore struct {
	ctDim int
	rows  vec.Rows[float64]
	live  []bool
	liveN int
}

// NewCiphertextStoreN returns a store holding n live, zero-filled records.
// It exists for bulk encryption: workers fill disjoint Record(i) views in
// place (Encryptor.EncryptRecords), so no per-point allocation or copying
// happens.
func NewCiphertextStoreN(ctDim, n int) *CiphertextStore {
	s := &CiphertextStore{
		ctDim: ctDim,
		rows:  *vec.NewRows[float64](4*ctDim, vec.PadStride(4*ctDim), n),
		live:  make([]bool, n),
		liveN: n,
	}
	for i := range s.live {
		s.live[i] = true
	}
	return s
}

// CtDim returns the component length of every ciphertext in the store.
func (s *CiphertextStore) CtDim() int { return s.ctDim }

// Len returns the number of records, including tombstones.
func (s *CiphertextStore) Len() int { return len(s.live) }

// Live returns the number of non-tombstoned records.
func (s *CiphertextStore) Live() int { return s.liveN }

// Has reports whether id names a live record.
func (s *CiphertextStore) Has(id int) bool {
	return id >= 0 && id < len(s.live) && s.live[id]
}

// Stride returns the in-memory record stride in float64s (≥ 4·ctDim; the
// excess is cache-line padding).
func (s *CiphertextStore) Stride() int { return s.rows.Stride() }

// Record returns the full mutable logical record [P1|P2|P3|P4] of id
// (4·CtDim floats, pad excluded) as a view into the arena.
func (s *CiphertextStore) Record(id int) []float64 { return s.rows.Row(id) }

// O12 returns the [P1|P2] half of id's record — the operands a point
// contributes when it is the "o" side of DistanceComp.
func (s *CiphertextStore) O12(id int) []float64 { return s.rows.Row(id)[:2*s.ctDim] }

// P34 returns the [P3|P4] half of id's record — the operands a point
// contributes when it is the "p" side of DistanceComp.
func (s *CiphertextStore) P34(id int) []float64 { return s.rows.Row(id)[2*s.ctDim:] }

// AppendRecord copies a full logical record (4·CtDim floats, as Record
// returns) into a fresh slot and returns its id.
func (s *CiphertextStore) AppendRecord(rec []float64) int {
	s.rows.Append(rec)
	s.live = append(s.live, true)
	s.liveN++
	return len(s.live) - 1
}

// Reserve pre-allocates capacity for records more appends, so they cannot
// trigger a reallocation. Compaction calls it before grafting under the
// writer mutex: the repacked arena is allocated exactly full, and without
// the reservation the first graft would double it — a full-arena copy —
// inside the writers' critical section.
func (s *CiphertextStore) Reserve(records int) {
	s.rows.Reserve(records)
	s.live = slices.Grow(s.live, records)
}

// Gather returns a store with a private arena whose record j is a copy of
// the receiver's record ids[j], or a zeroed dead slot when ids[j] < 0 or
// names no live record. It is the one way records are copied between
// stores: a fold keeps ids (the identity map, dead ids −1), offline
// compaction renumbers them densely, and Split takes a stripe. The arena
// is allocated exactly full.
func (s *CiphertextStore) Gather(ids []int) *CiphertextStore {
	ns := &CiphertextStore{ctDim: s.ctDim, rows: *s.rows.Gather(ids), live: make([]bool, len(ids))}
	for j, id := range ids {
		if s.Has(id) {
			ns.live[j] = true
			ns.liveN++
		} else {
			// vec.Rows.Gather copies a dead source record like any
			// other; no deleted ciphertext may survive into the copy.
			clear(ns.rows.Row(j))
		}
	}
	return ns
}

// Save writes every record's 4·CtDim floats, pad excluded, in id order:
// the database file's ciphertext section. A dead record is written as
// zeros whatever its bytes in memory, so no deleted ciphertext reaches
// disk and the section's length follows from Len alone.
func (s *CiphertextStore) Save(e *frame.Encoder) {
	zero := make([]float64, 4*s.ctDim)
	for id, live := range s.live {
		if live {
			e.FloatRun(s.Record(id))
		} else {
			e.FloatRun(zero)
		}
	}
}

// LoadStore reads the len(live) records Save wrote into a store of
// component length ctDim whose liveness is live, which it keeps. The arena
// grows as the records arrive, under len(live) (vec.Rows.AppendZero), so a
// record count the input does not back costs at most twice what did
// arrive.
func LoadStore(d *frame.Decoder, ctDim int, live []bool) *CiphertextStore {
	s := &CiphertextStore{ctDim: ctDim, rows: *vec.NewRows[float64](4*ctDim, vec.PadStride(4*ctDim), 0), live: live}
	for id := 0; id < len(live) && d.Err() == nil; id++ {
		d.FloatRun(s.rows.AppendZero(len(live)))
		if live[id] {
			s.liveN++
		}
	}
	return s
}

// LiveMask exposes the per-record liveness flags, used by the bulk
// serialization path. Callers must not modify it.
func (s *CiphertextStore) LiveMask() []bool { return s.live }

// CheckTrapdoor reports whether tq can be compared against the store's
// records: its Q must hold exactly CtDim floats. The comparison entry
// points do no per-call check, so the refine phase calls this once before
// its first comparison.
func (s *CiphertextStore) CheckTrapdoor(tq *Trapdoor) error {
	if len(tq.Q) != s.ctDim {
		return fmt.Errorf("dce: trapdoor has dim %d, ciphertexts %d", len(tq.Q), s.ctDim)
	}
	return nil
}

// DistanceComp is the package-level DistanceComp for the store's records
// o and p, read in place.
func (s *CiphertextStore) DistanceComp(o, p int, tq *Trapdoor) float64 {
	return DistanceCompHalves(s.O12(o), s.P34(p), tq.Q)
}

// DistanceCompHalves evaluates Z_{o,p,q} from o's [P1|P2] half and p's
// [P3|P4] half (each 2·len(q) floats), without requiring both records to
// live in the same store: the one kernel call behind both DistanceComps.
func DistanceCompHalves(o12, p34, q []float64) float64 {
	d := len(q)
	return distCompKernel(o12[:d], o12[d:], p34[:d], p34[d:], q)
}
