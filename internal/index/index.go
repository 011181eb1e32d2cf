// Package index defines the pluggable secure filter-index abstraction of
// the PP-ANNS scheme. Section V-A of the paper notes the privacy-preserving
// index is not married to HNSW: any proximity structure built over the
// DCPE/SAP ciphertexts can serve the filter phase, trading recall and build
// cost differently. This package turns that observation into an interface
// so `core` (and everything above it — serialization, transport, CLI,
// benchmarks) selects a backend by name instead of hard-wiring a concrete
// graph type.
//
// Two backends serve:
//
//	hnsw — hierarchical proximity graph (default)
//	ivf  — IVF-Flat inverted file, the coarse quantizer of the PQ tier
//
// NSG and E2LSH are rows of the Section V-A ablation (internal/bench),
// built there straight from internal/nsg and internal/lsh; a database
// tagged with either is refused (see Lookup).
//
// Both follow one lifecycle (see SecureIndex): an index is an immutable
// value, built or loaded once and then only read, and it holds topology
// only, over a column of rows it is given and does not own. Ids are row
// positions: every backend assigns ids 0..n-1 in row order, so callers
// can index parallel ciphertext arrays directly with the ids a search
// returns. Every row is live: a caller that deletes records gathers the
// rows that remain and builds over them.
package index

import (
	"errors"

	"ppanns/internal/frame"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// ErrOldFormat is wrapped by every refusal of a database file an earlier
// format generation wrote (core reads PPANNSD8 only; PPANNSD2–7 are
// refused). No build reads one generation and writes the next, so the fix
// is to encrypt the vectors again.
var ErrOldFormat = errors.New("written by an earlier format generation: re-encrypt the vectors with this build")

// SecureIndex is the filter-phase index over SAP ciphertexts. Ids are row
// positions, 0..n-1, of the column it was built over.
//
// # Lifecycle
//
// An index holds topology only. BuildOver, Rebuild and Load are given a
// column (*vec.Dataset); the index reads it in place and never writes,
// appends to or copies it. It is built or loaded, published, and then read
// with no lock, so searches run concurrently with one another and beside a
// Save (the conformance suite verifies it). core owns the column: its
// writers append inserts past the index's rows, copy-on-write, record
// deletes beside them, and a fold gathers a fresh column of the records
// that remain, Rebuilds a private index over it and publishes both
// atomically (see core's snapshot documentation).
type SecureIndex interface {
	// SearchInto appends up to k ids approximately closest to q,
	// closest first, to dst[:0], reusing its capacity. ef is an advisory
	// search-effort knob (beam width for HNSW; probe budget for IVF).
	SearchInto(dst []resultheap.Item, q []float64, k, ef int) []resultheap.Item
	// SearchIntoDist is SearchInto with every candidate distance supplied
	// by sc: core's filter passes its one distance provider, an exact
	// scanner over the database's SAP column or the PQ scanner over its
	// code arena, both spanning every id. Structural navigation that is
	// not a candidate distance (IVF centroid probing, HNSW graph topology)
	// still uses q exactly; every candidate the backend ranks is scored
	// through sc. Ids passed to sc are row positions.
	// SearchInto is SearchIntoDist with the exact scanner over the index's
	// column.
	SearchIntoDist(dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item
	// Rebuild constructs a fresh index of the same backend over rows —
	// the live slots a fold gathered, every one a record that remains —
	// and their ids, as BuildOver takes them, using the receiver's build
	// configuration (graph parameters, trained quantizer, seed); the
	// receiver is not modified. This is the fold primitive. A column with
	// no row builds an empty index.
	Rebuild(rows *vec.Dataset, ids []int32) (SecureIndex, error)
	// Vector returns id's row of the index's column. The second result is
	// false for an id the backend never assigned. Callers must treat the
	// returned slice as read-only.
	Vector(id int) ([]float64, bool)
	// Len returns the number of vectors.
	Len() int
	// Save writes the index's section of a database file: its topology
	// alone, no row, which the file states once for every section. Load
	// over the same column round-trips it into an index that saves the
	// same bytes.
	Save(e *frame.Encoder)
}

// Options carries per-backend build parameters. Zero values select each
// backend's documented defaults; fields for other backends are ignored,
// so one Options value can configure any backend choice.
type Options struct {
	// Dim is the vector dimension of the slices Build is given (required
	// there); BuildOver takes its column's.
	Dim int
	// Seed fixes construction: one seed and one input give one index.
	// 0 is a seed like any other.
	Seed uint64

	// M and EfConstruction are the HNSW build parameters (defaults 16
	// and 200; the paper's evaluation uses 40 and 600).
	M              int
	EfConstruction int
}
