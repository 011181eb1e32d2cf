// Package ppanns is a privacy-preserving approximate k-nearest-neighbor
// search library: a from-scratch Go implementation of "Privacy-Preserving
// Approximate Nearest Neighbor Search on High-Dimensional Data" (ICDE 2025).
//
// The scheme lets a data owner outsource an encrypted vector database to an
// honest-but-curious cloud server that answers k-ANNS queries without ever
// seeing plaintext vectors, plaintext queries, or distance values:
//
//   - Distance Comparison Encryption (DCE) answers "is o closer to q than
//     p?" exactly over ciphertexts in O(d) per comparison, leaking only the
//     comparison bit.
//   - A privacy-preserving index combines DCPE (scale-and-perturb
//     encryption with tunable noise β) with a proximity index built over
//     the DCPE ciphertexts, so the index structure reveals only
//     approximate neighbor relations. HNSW (the paper's choice) is the
//     default; IVF-Flat, the coarse quantizer of the PQ tier, is
//     selectable via Params.Index (see Backends).
//   - Queries follow a filter-and-refine strategy: the index retrieves
//     k′ > k candidates by approximate distance, then a max-heap driven
//     purely by DCE comparisons selects the exact best k.
//
// # Roles
//
// Three parties, as in the paper's system model:
//
//	owner, _ := ppanns.NewDataOwner(ppanns.Params{Dim: 128, Beta: 2.5})
//	edb, _   := owner.EncryptDatabase(vectors)       // ship to the cloud
//	server, _ := ppanns.NewServer(edb)
//	user, _  := ppanns.NewUser(owner.UserKey())      // authorized key
//
//	tok, _ := user.Query(q)
//	ids, _ := server.Search(tok, 10, ppanns.SearchOptions{KPrime: 80})
//
// The Server type is constructed from ciphertexts only; no API path exposes
// plaintexts or keys to it. See README.md for a quickstart and the
// backend-selection table; the tests of internal/eval reproduce the
// paper's evaluation as committed tables.
package ppanns

import (
	"ppanns/internal/core"
	"ppanns/internal/index"
	"ppanns/internal/wal"
)

// Params configures a deployment. See core.Params for field documentation;
// the zero value of every optional field selects a sensible default
// (Index="hnsw", IndexOptions.M=16, IndexOptions.EfConstruction=200). DCPE's
// scaling factor is the paper's s=1024, fixed: SAP ordering does not
// depend on it.
type Params = core.Params

// IndexOptions carries backend-specific build parameters for
// Params.IndexOptions. Fields for backends other than the selected one are
// ignored.
type IndexOptions = index.Options

// Backends lists the serving filter-index backends, sorted by name: hnsw
// and ivf. A database tagged with any other name, such as the nsg or lsh
// of the Section V-A ablation, is refused as an unknown backend.
func Backends() []string { return index.Names() }

// SearchOptions tunes a query: k′ (KPrime, default 8·k; the paper's
// Ratio_k is KPrime/k), the beam width, the refine mode and the filter
// distance provider.
type SearchOptions = core.SearchOptions

// SearchStats reports a query's cost split between the filter and refine
// phases, the candidate count, and the number of secure comparisons.
type SearchStats = core.SearchStats

// FilterDistMode selects the filter phase's distance provider (see
// SearchOptions.FilterDist).
type FilterDistMode = core.FilterDistMode

// Filter distance modes: exact SAP distances over the DCPE ciphertexts
// (the default), or the product-quantized compressed tier — M table
// lookups per candidate instead of a d-dimensional scan. FilterPQ
// requires a database built with Params.PQ, and pairs with an over-fetched
// SearchOptions.KPrime to absorb the quantization error; the refine
// phase stays exact either way.
const (
	FilterExact = core.FilterExact
	FilterPQ    = core.FilterPQ
)

// RefineMode selects the refine-phase comparison scheme.
type RefineMode = core.RefineMode

// Refine modes: the paper's DCE scheme, or no refinement (the
// filter-only ablation).
const (
	RefineDCE  = core.RefineDCE
	RefineNone = core.RefineNone
)

// DataOwner generates keys and encrypts databases; the only party that
// sees plaintext database vectors.
type DataOwner = core.DataOwner

// BuildStats reports where an EncryptDatabase call spent its time, stage
// by stage, and the k-means work of its IVF and PQ builds; see
// DataOwner.BuildStats.
type BuildStats = core.BuildStats

// User encrypts queries with owner-authorized key material.
type User = core.User

// Server hosts the encrypted database and answers queries; it never holds
// keys or plaintexts. It has three search methods over one body: Search
// (ids), SearchInto (ids into a recycled buffer, plus SearchStats), and
// SearchShard (ids plus their DCE records, which a scatter-gather
// coordinator merges shards by; it refuses the filter-only RefineNone).
// Concurrent calls run in parallel.
type Server = core.Server

// UserKey is the key material the data owner hands an authorized user.
type UserKey = core.UserKey

// QueryToken is an encrypted query: the DCPE ciphertext for the filter
// phase plus the DCE trapdoor for the refine phase.
type QueryToken = core.QueryToken

// EncryptedDatabase is the server-side state: three columns over the id
// space — the DCPE/SAP ciphertexts, the DCE ciphertexts for exact
// refinement and, optionally, the PQ codes — plus the filter index (hnsw
// or ivf) over the SAP column.
type EncryptedDatabase = core.EncryptedDatabase

// InsertPayload carries one new encrypted vector from owner to server.
type InsertPayload = core.InsertPayload

// NewDataOwner validates parameters and creates a data owner.
func NewDataOwner(p Params) (*DataOwner, error) { return core.NewDataOwner(p) }

// NewUser creates a query party from owner-authorized key material.
func NewUser(k *UserKey) (*User, error) { return core.NewUser(k) }

// NewServer wraps an encrypted database received from a data owner.
func NewServer(edb *EncryptedDatabase) (*Server, error) { return core.NewServer(edb) }

// ServerOptions tunes the serving tier's write path (delta-tier compaction
// triggers, the WAL).
type ServerOptions = core.ServerOptions

// NewServerWith is NewServer with explicit write-path options.
func NewServerWith(edb *EncryptedDatabase, o ServerOptions) (*Server, error) {
	return core.NewServerWith(edb, o)
}

// CompactionStats reports the serving tier's two-tier write-path state
// (delta size, pending tombstones, compaction history), as returned by
// Server.CompactionStats.
type CompactionStats = core.CompactionStats

// SyncPolicy selects when a WAL-attached server fsyncs acknowledged
// writes (ServerOptions.WALSync): Every: 1 syncs each write before its
// ack (group-committed across concurrent writers), Every: N syncs every
// N-th record, Interval syncs on a timer, and the zero value leaves
// durability to the OS page cache. See the README's Durability section
// for the guarantees of each.
type SyncPolicy = wal.SyncPolicy

// RecoveryStats describes what OpenServer found in a WAL directory: the
// newest checkpoint, which recovery anchors on alone, how many records it
// replayed over it through the live write's check and apply, and any
// torn-tail repair it performed.
type RecoveryStats = core.RecoveryStats

// WALStats summarizes a server's attached write-ahead log, as returned by
// Server.WALStats (nil when the server runs without one).
type WALStats = core.WALStats

// OpenServer recovers a server from a WAL directory previously populated
// via ServerOptions.WALDir: it repairs the log's torn tail, loads the
// newest checkpoint snapshot, replays every acknowledged mutation after
// it, and resumes logging. Use NewServerWith to create the directory;
// OpenServer to reopen it after a restart or crash.
func OpenServer(walDir string, o ServerOptions) (*Server, RecoveryStats, error) {
	return core.OpenServer(walDir, o)
}
