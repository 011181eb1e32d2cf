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
// Algorithm 2 has one body (Server.searchInto) and three exported entry
// points: Search returns ids; SearchInto appends them into a recycled
// buffer and reports SearchStats; SearchShard additionally returns the
// merge material of the active refine mode (a ShardResult) for a
// scatter-gather coordinator. A server answers concurrent calls in
// parallel on its snapshot-isolated read path.
package core

import (
	"fmt"

	"ppanns/internal/dce"
	"ppanns/internal/dcpe"
	"ppanns/internal/index"
	"ppanns/internal/pq"
	"ppanns/internal/rng"
)

// Params configures the scheme. Zero values select the documented defaults.
type Params struct {
	// Dim is the vector dimension (required).
	Dim int

	// S is DCPE's scaling factor; the paper uses 1024 (the default).
	S float64
	// Beta is DCPE's perturbation bound β. 0 means no noise (no index
	// privacy); the paper tunes it per dataset so the filter-only recall
	// ceiling is ≈0.5. See dcpe.BetaRange for the recommended range.
	Beta float64

	// Index selects the filter-phase backend by name: "hnsw" (default) or
	// "ivf". See internal/index for the trade-offs each makes.
	Index string
	// IndexOptions carries backend-specific build and search options; Dim
	// and Seed are filled in from this struct. The HNSW build parameters
	// live there (IndexOptions.M and EfConstruction: the paper uses 40 and
	// 600, the defaults are a laptop-scale 16 and 200).
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
	if p.S == 0 {
		p.S = 1024
	}
	if p.S < 0 {
		return p, fmt.Errorf("core: negative DCPE scaling factor %g", p.S)
	}
	if p.Beta < 0 {
		return p, fmt.Errorf("core: negative beta %g", p.Beta)
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
// IndexOptions, with Dim/Seed supplied from the scheme parameters.
func (p Params) indexOptions() index.Options {
	opts := p.IndexOptions
	opts.Dim = p.Dim
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

// EncryptedDatabase is the server-side state: the filter index over SAP
// ciphertexts (which owns the C_SAP vectors) plus the DCE ciphertexts in a
// flat arena store.
//
// External ids (what users see, and what index the DCE store) are the data
// owner's vector positions; every index backend returns
// positions from Search, keeping any internal id remapping to itself.
type EncryptedDatabase struct {
	Dim     int
	Backend string
	Index   index.SecureIndex
	DCE     *dce.CiphertextStore
	// PQ is the compressed filter tier: a product-quantization codebook
	// plus one M-byte code per position, trained server-side on the SAP
	// ciphertexts (no new leakage — the codes are a lossy function of data
	// the server already stores). Nil unless built with Params.PQ, loaded
	// from a database file carrying a PQ section, or built on demand via
	// BuildPQ. When present it covers every position [0, Len).
	PQ *pq.Store
}

// BuildPQ trains a PQ codebook over the stored SAP ciphertexts of the live
// records and encodes every live position, attaching the compressed filter
// tier to the database. A dead position's code row is zero, as a fold
// leaves it. This is the on-demand path for databases built (or saved)
// without one; cfg zero values select the documented pq defaults.
func (e *EncryptedDatabase) BuildPQ(cfg pq.TrainConfig) error {
	_, vecs, err := e.gather(identity(e.DCE.Len()), e.Index.Vector, nil)
	var store *pq.Store
	if err == nil {
		store, err = pq.Build(vecs, cfg)
	}
	if err != nil {
		return fmt.Errorf("core: building PQ: %w", err)
	}
	e.PQ = store
	return nil
}

// Len returns the number of vectors in the encrypted database, including
// tombstoned ones.
func (e *EncryptedDatabase) Len() int { return e.DCE.Len() }

// Live returns the number of non-tombstoned vectors — what Len counts
// minus the deletions still holding their id slots.
func (e *EncryptedDatabase) Live() int { return e.DCE.Live() }

// InsertPayload carries the ciphertexts of one new vector from the data
// owner to the server (Section V-D insertion): the SAP vector and the DCE
// record [P1|P2|P3|P4].
type InsertPayload struct {
	SAP []float64
	DCE []float64
}
