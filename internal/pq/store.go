package pq

import "fmt"

// gatherPad is the extra allocated capacity kept past the last code byte.
// The AVX2 scan kernel gathers codes with 32-bit loads, so the final code
// of the final record pulls in up to three bytes beyond the arena; keeping
// the slack inside the same allocation makes the over-read well-defined.
const gatherPad = 8

// CodeStore is the append-only arena of PQ codes, one M-byte row per point,
// addressed by the same ids as the DCE ciphertext arena. It follows the
// same snapshot-publication discipline as dce.CiphertextStore: published
// stores are never mutated, Extend appends past every published length
// under a shared backing, and Gather copies rows by an id map into a
// private arena, zero at every dead slot.
//
// Tombstoned ids keep their (stale) codes: the filter index never visits
// deleted points and the serving tier re-checks tombstones on merge, so a
// dead row's bytes are unreachable garbage, not a correctness hazard.
type CodeStore struct {
	m     int
	codes []byte // n·m bytes; allocation always carries ≥ gatherPad slack
}

// alloc returns a code arena of length n with gather slack in capacity.
func alloc(n int) []byte { return make([]byte, n, n+gatherPad) }

// NewCodeStoreN returns a store holding n zero-filled rows, for bulk
// encoding: workers fill disjoint Row(i) views in place.
func NewCodeStoreN(m, n int) *CodeStore {
	if m <= 0 {
		panic(fmt.Sprintf("pq: non-positive code width %d", m))
	}
	if n < 0 {
		panic(fmt.Sprintf("pq: negative store size %d", n))
	}
	return &CodeStore{m: m, codes: alloc(m * n)}
}

// M returns the code width in bytes.
func (s *CodeStore) M() int { return s.m }

// Len returns the number of rows (tombstones included — row count tracks
// the ciphertext store's id space).
func (s *CodeStore) Len() int { return len(s.codes) / s.m }

// Row returns the mutable M-byte code row of id as a view into the arena.
func (s *CodeStore) Row(id int) []byte {
	base := id * s.m
	return s.codes[base : base+s.m : base+s.m]
}

// Raw exposes the flat code arena (Len()·M bytes). Callers must not
// resize it; the serialization path reads it directly.
func (s *CodeStore) Raw() []byte { return s.codes }

// SizeBytes returns the in-memory footprint of the code arena.
func (s *CodeStore) SizeBytes() int { return len(s.codes) }

// grow ensures capacity for rows more rows plus the gather slack,
// reallocating when needed. As with the ciphertext arena, published
// snapshots sharing the old backing are unaffected: a reallocation gives
// this store a private copy, an in-place extension only writes past every
// published length.
func (s *CodeStore) grow(rows int) {
	need := len(s.codes) + rows*s.m + gatherPad
	if need <= cap(s.codes) {
		return
	}
	newCap := 2 * cap(s.codes)
	if newCap < need {
		newCap = need
	}
	na := make([]byte, len(s.codes), newCap)
	copy(na, s.codes)
	s.codes = na
}

// AppendRow copies an M-byte code row in place and returns its id.
func (s *CodeStore) AppendRow(code []byte) int {
	if len(code) != s.m {
		panic(fmt.Sprintf("pq: appending %d-byte code to store of width %d", len(code), s.m))
	}
	s.grow(1)
	s.codes = append(s.codes, code...)
	return s.Len() - 1
}

// Extend appends a code row and returns a new store header covering the
// extended arena, leaving the receiver's view unchanged — the O(1) append
// for the serving tier's delta path, mirroring dce.CiphertextStore.Extend
// (same single-writer discipline: Extends on one chain are serialized and
// published stores are never re-extended from two snapshots).
func (s *CodeStore) Extend(code []byte) *CodeStore {
	ns := &CodeStore{m: s.m, codes: s.codes}
	ns.AppendRow(code)
	return ns
}

// Reserve pre-allocates capacity for rows more appends so they cannot
// reallocate (compaction grafts under the writer mutex).
func (s *CodeStore) Reserve(rows int) { s.grow(rows) }

// Gather returns a store with a private arena whose row j is a copy of the
// receiver's row ids[j], or zero when ids[j] < 0 (a dead slot), matching
// dce.CiphertextStore.Gather.
func (s *CodeStore) Gather(ids []int) *CodeStore {
	ns := &CodeStore{m: s.m, codes: alloc(len(ids) * s.m)}
	for j, id := range ids {
		if id >= 0 {
			copy(ns.codes[j*s.m:], s.Row(id))
		}
	}
	return ns
}

// Snapshot returns a header clone sharing the arena, for the snapshot-
// publication discipline (the arena is immutable once published; appends
// go through Extend).
func (s *CodeStore) Snapshot() *CodeStore {
	return &CodeStore{m: s.m, codes: s.codes}
}
