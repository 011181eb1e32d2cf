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
// value, built or loaded once and then only read. External ids are vector
// positions: every backend assigns ids 0..n-1 in build order, so callers
// can index parallel ciphertext arrays directly with the ids a search
// returns. A nil row in the vectors a build is given is a dead slot.
package index

import (
	"errors"
	"fmt"

	"ppanns/internal/frame"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// ErrOldFormat is wrapped by every refusal of a database file an earlier
// format generation wrote (core reads PPANNSD6 only). No build reads one
// generation and writes the next, so the fix is to encrypt the vectors
// again.
var ErrOldFormat = errors.New("written by an earlier format generation: re-encrypt the vectors with this build")

// SecureIndex is the filter-phase index over SAP ciphertexts. Ids are
// vector positions, 0..n-1 in build order.
//
// # Lifecycle
//
// An index is built (Build, Rebuild) or loaded (Load), published, and then
// read with no lock: nothing writes to it after construction, so searches
// run concurrently with any number of other searches and beside a Save
// (the conformance suite verifies it). Deletion is a construction input: a
// nil row in the vectors is a dead slot, which keeps its id — positions
// never shift — but holds no vector, and which no backend links, lists or
// hashes. core.Server's writers append to the delta tier beside the
// published index, and a fold Rebuilds a private index over both tiers
// with nil at every dead id and publishes the result atomically (see
// core's snapshot documentation).
type SecureIndex interface {
	// SearchInto appends up to k live ids approximately closest to q,
	// closest first, to dst[:0], reusing its capacity. ef is an advisory
	// search-effort knob (beam width for HNSW; probe budget for IVF).
	SearchInto(dst []resultheap.Item, q []float64, k, ef int) []resultheap.Item
	// SearchIntoDist is SearchInto with every candidate distance supplied
	// by sc: core's filter passes its one distance provider, an exact
	// scanner over the database's SAP column or the PQ scanner over its
	// code arena, both spanning every id. Structural navigation that is
	// not a candidate distance (IVF centroid probing, HNSW graph topology)
	// still uses q exactly; every candidate the backend ranks is scored
	// through sc. Ids passed to sc are external ids (vector positions).
	// SearchInto is SearchIntoDist with the exact scanner over Rows.
	SearchIntoDist(dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item
	// Rebuild constructs a fresh index of the same backend over vectors,
	// using the receiver's build configuration (graph parameters, trained
	// quantizer, seed). Ids are assigned 0..len-1 in vectors order, nil
	// rows dead; the receiver is not modified. This is the fold primitive.
	// A vector set whose rows are all nil builds an empty index.
	Rebuild(vectors [][]float64) (SecureIndex, error)
	// Vector returns the stored (SAP-ciphertext) vector of a live id. The
	// second result is false for dead slots and for ids the backend never
	// assigned. Callers must treat the returned slice as read-only.
	Vector(id int) ([]float64, bool)
	// Rows returns the stored vectors as the index's own row arena: row id
	// holds id's vector, a zero row at a dead slot. Core's SAP column is
	// this arena on a built or loaded database. Callers must not write its
	// rows or append to it; the holder of an index nothing else has seen
	// yet may Reserve room past them, which moves the arena, not a row.
	Rows() *vec.Dataset
	// Len returns the number of live vectors.
	Len() int
	// Save writes the index's section of a database file, so Load
	// round-trips it into an index that saves the same bytes.
	Save(e *frame.Encoder)
}

// Options carries per-backend build and search parameters. Zero values
// select each backend's documented defaults; fields for other backends are
// ignored, so one Options value can configure any backend choice.
type Options struct {
	// Dim is the vector dimension (required).
	Dim int
	// Seed fixes construction: one seed and one input give one index.
	// 0 is a seed like any other.
	Seed uint64

	// M and EfConstruction are the HNSW build parameters (defaults 16
	// and 200; the paper's evaluation uses 40 and 600).
	M              int
	EfConstruction int
}

func (o Options) validate() error {
	if o.Dim <= 0 {
		return fmt.Errorf("index: non-positive dimension %d", o.Dim)
	}
	return nil
}
