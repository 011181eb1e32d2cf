// Package core implements the paper's PP-ANNS scheme (Section V): the
// three-party protocol of Figure 1 with the privacy-preserving index of
// Figure 3 and the filter-and-refine search of Algorithm 2.
//
// Roles:
//
//   - DataOwner generates the secret keys, encrypts the database under both
//     DCPE/SAP (approximate, indexed by a pluggable proximity structure)
//     and DCE (exact comparisons), and ships only ciphertexts to the
//     server. For updates it encrypts individual vectors (Section V-D).
//   - User holds the authorized key material (Figure 1 step 0) and turns a
//     plaintext query into a QueryToken = (C_SAP(q), T_q) — the only thing
//     that ever leaves the user.
//   - Server stores {C_SAP, index over C_SAP, C_DCE} and answers queries:
//     the filter phase runs k′-ANNS on the SAP index, the refine phase
//     selects the best k among the k′ candidates with a max-heap driven
//     purely by DCE distance comparisons.
//
// The filter index is selected by name through internal/index — HNSW (the
// paper's choice, and the default) or IVF-Flat, the coarse quantizer of the
// PQ tier — per the observation in Section V-A that the privacy-preserving
// index can swap HNSW for other proximity structures.
//
// The server type is constructed exclusively from ciphertexts; no API
// exposes plaintext vectors, distances, or keys to it.
//
// Algorithm 2 has one body (snapshot.search) and three exported entry
// points: Search returns ids; SearchInto appends them into a recycled
// buffer and reports SearchStats; SearchShard additionally returns each
// result's DCE record (a ShardResult) for a scatter-gather coordinator,
// and refuses the filter-only mode. A server answers concurrent calls in
// parallel on its snapshot-isolated read path.
package core

import (
	"fmt"
	"math"
	"slices"

	"ppanns/internal/dce"
	"ppanns/internal/dcpe"
	"ppanns/internal/index"
	"ppanns/internal/pq"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// sapScale is DCPE's scaling factor s, the paper's 1024. SAP ordering does
// not depend on it, so it is not a parameter.
const sapScale = 1024

// Params configures the scheme. Zero values select the documented defaults.
type Params struct {
	// Dim is the vector dimension (required).
	Dim int

	// Beta is DCPE's perturbation bound β. 0 means no noise (no index
	// privacy); the paper tunes it per dataset so the filter-only recall
	// ceiling is ≈0.5, inside the paper's range [√M, 2M√d], where
	// M = max_p max_i |p_i| (Section V-A). CalibrateBeta finds that β
	// for a corpus.
	Beta float64

	// Index selects the filter-phase backend by name: "hnsw" (default) or
	// "ivf". See internal/index for the trade-offs each makes.
	Index string
	// IndexOptions carries backend-specific build options; a zero Seed is
	// derived from this struct's, and the dimension is the SAP column's.
	// The HNSW build parameters live there (IndexOptions.M and
	// EfConstruction: the paper uses 40 and 600, the defaults are a
	// laptop-scale 16 and 200).
	IndexOptions index.Options

	// PQ attaches the compressed filter tier at encryption time: a
	// product-quantization codebook over the SAP ciphertexts plus an
	// M-byte code per vector, enabling SearchOptions.FilterDist=FilterPQ.
	// PQM overrides the subquantizer count (default 16 = 16 bytes/point).
	PQ  bool
	PQM int

	// Seed makes key generation and index construction deterministic when
	// non-zero (tests and experiments); 0 draws from crypto/rand.
	Seed uint64
}

func (p Params) withDefaults() (Params, error) {
	if p.Dim <= 0 {
		return p, fmt.Errorf("core: non-positive dimension %d", p.Dim)
	}
	if !(p.Beta >= 0) || math.IsInf(p.Beta, 0) {
		return p, fmt.Errorf("core: beta (β) must be non-negative and finite, got %g", p.Beta)
	}
	if p.Index == "" {
		p.Index = index.Default
	}
	if err := index.Lookup(p.Index); err != nil {
		return p, fmt.Errorf("core: %w", err)
	}
	return p, nil
}

// indexOptions assembles the effective backend options: the explicit
// IndexOptions, with a zero Seed derived from the scheme's.
func (p Params) indexOptions() index.Options {
	opts := p.IndexOptions
	if opts.Seed == 0 {
		opts.Seed = p.Seed ^ 0x9d5
	}
	return opts
}

func (p Params) rand() *rng.Rand {
	if p.Seed == 0 {
		return rng.NewCrypto()
	}
	return rng.NewSeeded(p.Seed)
}

// UserKey is the key material the data owner hands an authorized user
// (Figure 1 step 0). It is the owner's whole key, not a query-only part:
// the same *dce.Key and *dcpe.Key EncryptDatabase encrypted the records
// with (DataOwner.UserKey returns them, and SaveUserKey writes all of
// them), so it can encrypt records as well as queries.
type UserKey struct {
	DCE *dce.Key
	SAP *dcpe.Key
}

// QueryToken is the encrypted query the user sends to the server:
// the SAP ciphertext (filter phase) and the DCE trapdoor (refine phase).
type QueryToken struct {
	SAP      []float64
	Trapdoor *dce.Trapdoor
}

// EncryptedDatabase is the server-side state: three columns — the C_SAP
// vectors, the DCE ciphertexts and, optionally, the PQ codes — plus the
// filter index over the SAP vectors, and the ids column that names the
// record each row holds.
//
// Every column is indexed by slot, and every slot holds a live record:
// a deleted record has no row anywhere. Slot j carries id ids[j], and ids
// is strictly increasing, because ids are issued in order and every
// re-layout keeps slot order; so id → slot is a binary search over it, and
// the column is the one statement of which ids are live. Ids (what users
// see, what Delete names and the shard tier stripes by) run over the id
// space [0, Len), which keeps counting every id ever issued; the index
// returns slots, which a search maps to ids once.
type EncryptedDatabase struct {
	Dim     int
	Backend string
	Index   index.SecureIndex
	// SAP is the C_SAP column: row j is slot j's SAP ciphertext. It is the
	// database's one SAP row arena, which Save writes once, in a section of
	// its own: the index holds only topology and reads the rows of the
	// column it was built over or loaded with, in place. A server appends
	// inserts past the index's rows, copy-on-write, so the column keeps
	// spanning every slot while the index covers the prefix it was built
	// over.
	SAP *vec.Dataset
	DCE *dce.CiphertextStore
	// PQ is the compressed filter tier: a product-quantization codebook
	// plus one M-byte code per slot, trained server-side on the SAP
	// ciphertexts (no new leakage — the codes are a lossy function of data
	// the server already stores). Nil unless built with Params.PQ or
	// loaded from a database file carrying a PQ section. When present it
	// covers every slot.
	PQ *pq.Store

	// ids maps slot → id, strictly increasing; it is appended under the
	// same copy-on-write discipline as the columns (see vec.Rows).
	ids []int32
	// n is the id space: the id the next insert is given.
	n int
}

// Len returns the id space: the number of ids ever issued, deleted ones
// included, which is the id the next insert is given.
func (e *EncryptedDatabase) Len() int { return e.n }

// Live returns the number of records held: one per slot of every column.
func (e *EncryptedDatabase) Live() int { return len(e.ids) }

// slot returns the slot holding id, and whether one does.
func (e *EncryptedDatabase) slot(id int) (int, bool) {
	if id < 0 || id >= e.n {
		return 0, false
	}
	return slices.BinarySearch(e.ids, int32(id))
}

// toIDs maps the slots in s to their ids, in place.
func (e *EncryptedDatabase) toIDs(s []int) {
	for i, slot := range s {
		s[i] = int(e.ids[slot])
	}
}

// InsertPayload carries the ciphertexts of one new vector from the data
// owner to the server (Section V-D insertion): the SAP vector and the DCE
// record [P1|P2|P3|P4].
type InsertPayload struct {
	SAP []float64
	DCE []float64
}
