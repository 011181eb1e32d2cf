package dce

import (
	"fmt"

	"ppanns/internal/frame"
	"ppanns/internal/vec"
)

// CiphertextStore is a flat-arena backing for DCE ciphertexts. Instead of
// four separately allocated component slices behind a pointer per point,
// every point owns one contiguous record
//
//	[ P1 | P2 | P3 | P4 ]   (4·ctDim float64s)
//
// inside a single backing array. DistanceComp(o, p, q) reads o's first two
// components and p's last two, so the layout puts each side's operands on
// adjacent cache lines: the refine phase's O(k′ log k) comparisons walk two
// contiguous ranges plus the (hot) trapdoor instead of chasing five
// pointers across scattered heap objects.
//
// Records are addressed by id (0..Len()-1). A dead record is a zeroed,
// tombstoned slot — Gather leaves one where its id map says so — and ids
// are never reused. All views are slices into the arena: cheap, copy-free,
// and invalidated by the next AppendRecord (callers must not retain them across
// mutations).
//
// The arena base is 64-byte aligned and the record stride is 4·ctDim
// rounded up to a cache-line multiple (pad floats stay zero), so every
// record — and, since ctDim is even for every real DCE key, every
// component — starts on a cache-line boundary and SIMD loads never split a
// line at a record edge. The padding is purely an in-memory layout: Save
// and LoadStore speak the compact 4·ctDim-per-record representation, which
// keeps the database file's bytes independent of it.
type CiphertextStore struct {
	ctDim   int
	strideF int // record stride in float64s: PadStride(4·ctDim)
	arena   []float64
	live    []bool
	liveN   int
}

// recordStride is the in-memory record stride for a component length.
func recordStride(ctDim int) int { return vec.PadStride(4 * ctDim) }

// NewCiphertextStoreN returns a store holding n live, zero-filled records.
// It exists for bulk encryption: workers fill disjoint Record(i) views in
// place (Encryptor.EncryptRecords), so no per-point allocation or copying
// happens.
func NewCiphertextStoreN(ctDim, n int) *CiphertextStore {
	if ctDim <= 0 {
		panic(fmt.Sprintf("dce: non-positive ciphertext dimension %d", ctDim))
	}
	if n < 0 {
		panic(fmt.Sprintf("dce: negative store size %d", n))
	}
	st := recordStride(ctDim)
	s := &CiphertextStore{
		ctDim:   ctDim,
		strideF: st,
		arena:   vec.AlignedFloats(st * n),
		live:    make([]bool, n),
		liveN:   n,
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

// stride returns the in-memory record stride in float64s (≥ 4·ctDim; the
// excess is cache-line padding).
func (s *CiphertextStore) stride() int { return s.strideF }

// Stride is the exported form of stride, for the alignment tests.
func (s *CiphertextStore) Stride() int { return s.strideF }

// Record returns the full mutable logical record [P1|P2|P3|P4] of id
// (4·CtDim floats, pad excluded) as a view into the arena.
func (s *CiphertextStore) Record(id int) []float64 {
	base := id * s.strideF
	return s.arena[base : base+4*s.ctDim : base+4*s.ctDim]
}

// O12 returns the [P1|P2] half of id's record — the operands a point
// contributes when it is the "o" side of DistanceComp.
func (s *CiphertextStore) O12(id int) []float64 {
	base := id * s.strideF
	return s.arena[base : base+2*s.ctDim]
}

// P34 returns the [P3|P4] half of id's record — the operands a point
// contributes when it is the "p" side of DistanceComp.
func (s *CiphertextStore) P34(id int) []float64 {
	base := id*s.strideF + 2*s.ctDim
	return s.arena[base : base+2*s.ctDim]
}

// grow ensures arena capacity for records more records, reallocating
// aligned storage when needed (append would lose the 64-byte base
// alignment). Published snapshots sharing the old arena are unaffected: a
// reallocation gives this store a private copy, and an in-place extension
// only writes past every published snapshot's length.
func (s *CiphertextStore) grow(records int) {
	need := len(s.arena) + records*s.strideF
	if need <= cap(s.arena) {
		return
	}
	newCap := 2 * cap(s.arena)
	if newCap < need {
		newCap = need
	}
	na := vec.AlignedFloats(newCap)[:len(s.arena)]
	copy(na, s.arena)
	s.arena = na
}

// Snapshot returns a copy-on-write clone for core's snapshot-publication
// discipline. The liveness flags are copied, so AppendRecord on the clone is
// invisible to the receiver; the arena is shared, which is safe under that
// discipline because published stores are never mutated again — appends
// only ever write past every published snapshot's length. Callers outside
// that discipline must not mutate both the receiver and the clone.
func (s *CiphertextStore) Snapshot() *CiphertextStore {
	return &CiphertextStore{
		ctDim:   s.ctDim,
		strideF: s.strideF,
		arena:   s.arena,
		live:    append([]bool(nil), s.live...),
		liveN:   s.liveN,
	}
}

// Extend appends the record rec and returns a new store header covering
// the extended arena, leaving the receiver's view unchanged: the O(1)
// append for core's delta tier, where the receiver is a published
// snapshot. The arena AND the liveness mask backings are shared — the new
// record is written past the receiver's length, which is safe only under
// the single-writer append discipline (all Extends on one chain are
// serialized, published stores are never re-extended from two snapshots,
// and deletes on the chain never touch store flags). The new record's id
// is the receiver's Len().
func (s *CiphertextStore) Extend(rec []float64) *CiphertextStore {
	ns := &CiphertextStore{
		ctDim:   s.ctDim,
		strideF: s.strideF,
		arena:   s.arena,
		live:    s.live,
		liveN:   s.liveN,
	}
	ns.AppendRecord(rec)
	return ns
}

// AppendRecord copies a full logical record (4·CtDim floats, as Record
// returns) into a fresh slot and returns its id.
func (s *CiphertextStore) AppendRecord(rec []float64) int {
	if len(rec) != 4*s.ctDim {
		panic(fmt.Sprintf("dce: appending record of %d floats to store of dim %d (want %d)",
			len(rec), s.ctDim, 4*s.ctDim))
	}
	s.grow(1)
	base := len(s.arena)
	s.arena = s.arena[:base+s.strideF]
	dst := s.arena[base:]
	copy(dst, rec)
	for i := len(rec); i < s.strideF; i++ {
		dst[i] = 0
	}
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
	s.grow(records)
	if need := len(s.live) + records; need > cap(s.live) {
		nl := make([]bool, len(s.live), need)
		copy(nl, s.live)
		s.live = nl
	}
}

// Gather returns a store with a private arena whose record j is a copy of
// the receiver's record ids[j], or a zeroed dead slot when ids[j] < 0 or
// names no live record. It is the one way records are copied between
// stores: a fold keeps ids (the identity map, dead ids −1), offline
// compaction renumbers them densely, and Split takes a stripe. The arena
// is allocated exactly full.
func (s *CiphertextStore) Gather(ids []int) *CiphertextStore {
	ns := &CiphertextStore{
		ctDim:   s.ctDim,
		strideF: s.strideF,
		arena:   vec.AlignedFloats(s.strideF * len(ids)),
		live:    make([]bool, len(ids)),
	}
	for j, id := range ids {
		if !s.Has(id) {
			continue
		}
		copy(ns.arena[j*ns.strideF:], s.Record(id))
		ns.live[j] = true
		ns.liveN++
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
// component length ctDim whose liveness is live, which it keeps. The
// arena grows as the records arrive (vec.ExtendAligned), so a record
// count the input does not back costs at most twice what did arrive.
func LoadStore(d *frame.Decoder, ctDim int, live []bool) *CiphertextStore {
	s := &CiphertextStore{ctDim: ctDim, strideF: recordStride(ctDim), live: live}
	for id := 0; id < len(live) && d.Err() == nil; id++ {
		s.arena = vec.ExtendAligned(s.arena, s.strideF, s.strideF*len(live))
		d.FloatRun(s.Record(id))
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
