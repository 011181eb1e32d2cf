// Package index defines the pluggable secure filter-index abstraction of
// the PP-ANNS scheme. Section V-A of the paper notes the privacy-preserving
// index is not married to HNSW: any proximity structure built over the
// DCPE/SAP ciphertexts can serve the filter phase, trading recall, build
// cost, and update support differently. This package turns that observation
// into an interface plus a name-keyed registry so `core` (and everything
// above it — serialization, transport, CLI, benchmarks) selects a backend
// by name instead of hard-wiring a concrete graph type.
//
// Four backends register themselves in this package:
//
//	hnsw — hierarchical proximity graph; fully dynamic (default)
//	nsg  — navigating spreading-out graph; batch-built, delete-only
//	ivf  — IVF-Flat inverted file; dynamic
//	lsh  — E2LSH multi-probe hashing; dynamic
//
// External ids are vector positions: every backend assigns ids 0..n-1 in
// build order and sequentially from Len() on Add, so callers can index
// parallel ciphertext arrays directly with the ids a Search returns.
package index

import (
	"errors"
	"fmt"
	"io"

	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// ErrNotSupported is wrapped by backends rejecting an operation their
// structure cannot perform (e.g. inserting into a batch-built NSG).
var ErrNotSupported = errors.New("index: operation not supported by backend")

// ErrOldFormat is wrapped by every refusal of bytes an earlier format
// generation wrote: database files before PPANNSD5 (core) and hnsw payloads
// whose id map is not the identity (arrival-order parallel builds). There
// is one reader per format.
var ErrOldFormat = errors.New("written by an earlier format generation: re-encrypt, or load and re-save with a build at or before PR 23")

// Caps reports what a backend can do beyond build-and-search, so callers
// can gate updates instead of discovering failures at mutation time.
type Caps struct {
	// Name is the registry name of the backend.
	Name string
	// DynamicInsert reports whether Add works after the initial build.
	DynamicInsert bool
	// DynamicDelete reports whether Delete (tombstoning) works.
	DynamicDelete bool
}

// SecureIndex is the filter-phase index over SAP ciphertexts. Ids are
// vector positions (0..n-1 in build order, then sequential per Add).
//
// # Concurrent-read contract
//
// Every backend must satisfy (and the conformance suite verifies) two
// concurrency guarantees the snapshot-publication serving tier builds on:
//
//  1. Search/SearchInto may run concurrently with any number of other
//     searches on the same instance, with no external locking.
//  2. Clone returns a copy sharing no mutable state with the receiver:
//     mutating either side (Add, Delete) never changes what the other
//     side's searches observe.
//
// Mutations themselves are not required to be safe against concurrent
// searches on the same instance — core.Server never mutates a published
// index: its writers append to the delta tier beside it, and a fold builds
// the next one with Rebuild on a private value it publishes atomically
// (see core's snapshot documentation).
type SecureIndex interface {
	// Add inserts a vector and returns its id, which is always the value
	// Len-including-tombstones had before the call. Backends without
	// dynamic insert return an error wrapping ErrNotSupported.
	Add(v []float64) (int, error)
	// Search returns up to k live ids approximately closest to q,
	// closest first. ef is an advisory search-effort knob (beam width for
	// graphs; probe budget for partition- and hash-based backends).
	Search(q []float64, k, ef int) []resultheap.Item
	// SearchInto is Search appending into dst (reusing its capacity), so
	// steady-state callers avoid per-query result allocation. Backends
	// without a pooled internal search path may still allocate scratch.
	SearchInto(dst []resultheap.Item, q []float64, k, ef int) []resultheap.Item
	// SearchIntoDist is SearchInto with every candidate distance supplied
	// by sc instead of computed from the stored vectors — the compressed
	// (PQ) filter hook. Structural navigation that is not a candidate
	// distance (IVF centroid probing, LSH bucket hashing, HNSW/NSG graph
	// topology) still uses q exactly; every candidate the backend ranks is
	// scored through sc. Ids passed to sc are external ids (vector
	// positions), including tombstoned ones traversal routes through, so
	// the scanner's code arena must cover every position ever assigned.
	SearchIntoDist(dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item
	// Delete tombstones an id. Backends without dynamic delete return an
	// error wrapping ErrNotSupported.
	Delete(id int) error
	// Clone returns an independent copy of the index. Mutations on the
	// clone are invisible to the original (and vice versa), and cloning is
	// pure copying — no distance computations, no rebuild. Immutable state
	// (trained quantizers, hash projections) may be shared. Nothing in the
	// serving tier calls it today — core.Server stopped cloning when writes
	// moved to the delta tier — only the conformance suite does; it stays
	// in the contract because a fold that thaws and extends the published
	// index instead of rebuilding it needs exactly this private copy.
	Clone() SecureIndex
	// Rebuild constructs a fresh index of the same backend over vectors,
	// using the receiver's build configuration (graph parameters, trained
	// quantizers, hash projections, seed). Ids are assigned 0..len-1 in
	// vectors order, all live; the receiver is not modified. This is the
	// compaction primitive: it restores full structure quality (graph
	// connectivity, list balance) that incremental mutation erodes, and it
	// works on every backend — including batch-built ones that reject Add.
	Rebuild(vectors [][]float64) (SecureIndex, error)
	// Vector returns the stored (SAP-ciphertext) vector of an id, valid
	// for tombstoned ids too — backends retain tombstone rows, and
	// partition rebuilds (core.EncryptedDatabase.Split) need every
	// position's vector to keep local ids dense. The second result is
	// false only for ids the backend never assigned. Callers must treat
	// the returned slice as read-only and copy it before retaining it
	// across mutations.
	Vector(id int) ([]float64, bool)
	// Len returns the number of live (non-deleted) vectors.
	Len() int
	// Dim returns the vector dimension.
	Dim() int
	// Caps reports the backend's update capabilities.
	Caps() Caps
	// Save writes the index (including search-time options) so the
	// registered loader round-trips it byte-exactly into an equivalent
	// index.
	Save(w io.Writer) error
}

// Options carries per-backend build and search parameters. Zero values
// select each backend's documented defaults; fields for other backends are
// ignored, so one Options value can configure any backend choice.
type Options struct {
	// Dim is the vector dimension (required).
	Dim int
	// Seed makes construction deterministic when non-zero.
	Seed uint64

	// M and EfConstruction are the HNSW build parameters (defaults 16
	// and 200; the paper's evaluation uses 40 and 600).
	M              int
	EfConstruction int

	// Lists is IVF's nlist (default √n clamped to [16, 4096]);
	// TrainIters bounds quantizer training (default 20); NProbe fixes
	// the probed-list count per query (default derived from ef).
	Lists      int
	TrainIters int
	NProbe     int

	// R, L and KNN are NSG's max out-degree, construction pool size and
	// seeding-kNN width (defaults 32, 128, 48).
	R   int
	L   int
	KNN int

	// Tables, Hashes and W are E2LSH's L, K and quantization width
	// (defaults 12, 8, and a width calibrated from the data scale);
	// Probes fixes the multi-probe budget per table (default: derived
	// from the search's ef, clamped to [Hashes, 2·Hashes]).
	Tables int
	Hashes int
	W      float64
	Probes int
}

func (o Options) validate() error {
	if o.Dim <= 0 {
		return fmt.Errorf("index: non-positive dimension %d", o.Dim)
	}
	return nil
}
