package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
	"ppanns/internal/wal"
)

// RefineMode selects how the server's refine phase compares candidates.
type RefineMode int

// The values are part of the wire protocol: 1 is unassigned and answered
// as an unknown mode.
const (
	// RefineDCE is the paper's scheme: exact comparisons via DCE, O(d)
	// per comparison.
	RefineDCE RefineMode = 0
	// RefineNone skips refinement and returns the filter phase's top-k —
	// the HNSW(filter) ablation of Figure 6. Search and SearchInto serve
	// it; SearchShard refuses it, having no DCE records to merge by.
	RefineNone RefineMode = 2
)

// String names the refine mode for reports.
func (m RefineMode) String() string {
	switch m {
	case RefineDCE:
		return "dce"
	case RefineNone:
		return "filter-only"
	default:
		return fmt.Sprintf("refine(%d)", int(m))
	}
}

// FilterDistMode selects the filter phase's candidate distance provider.
type FilterDistMode int

const (
	// FilterExact ranks filter candidates by squared L2 over the stored
	// SAP ciphertexts (the scheme as published).
	FilterExact FilterDistMode = iota
	// FilterPQ ranks filter candidates through the product-quantization
	// tier: one asymmetric distance table per query, M one-byte lookups
	// per candidate — the memory traffic of the filter walk drops from
	// 8·dim to M bytes per candidate. Requires a database built (or
	// extended) with a PQ store. The refine phase is untouched, so result
	// exactness is unchanged; quantization error is recovered by a larger
	// over-fetch k′.
	FilterPQ
)

// String names the filter distance mode for reports.
func (m FilterDistMode) String() string {
	switch m {
	case FilterExact:
		return "exact"
	case FilterPQ:
		return "pq"
	default:
		return fmt.Sprintf("filterdist(%d)", int(m))
	}
}

// SearchOptions tunes one search call.
type SearchOptions struct {
	// KPrime is k′, the filter phase's candidate count; Figure 5's
	// Ratio_k is KPrime/k. Defaults to 8·k. Like k it is capped at the
	// database's record count.
	KPrime int
	// EfSearch is the HNSW beam width; defaults to max(KPrime, 50).
	EfSearch int
	// Refine selects the comparison scheme (default RefineDCE).
	Refine RefineMode
	// FilterDist selects the filter phase's distance provider (default
	// FilterExact). FilterPQ fails with a wire-safe error when the hosted
	// database carries no PQ store.
	FilterDist FilterDistMode
}

func (s SearchOptions) kPrime(k int) int {
	if s.KPrime > 0 {
		return s.KPrime
	}
	return 8 * k
}

func (s SearchOptions) ef(kPrime int) int {
	if s.EfSearch > 0 {
		return s.EfSearch
	}
	if kPrime > 50 {
		return kPrime
	}
	return 50
}

// Partition returns a copy of the options with the filter effort divided
// across n shards: k′ and the beam width shrink to their per-shard share
// (floored at k — every shard must still produce a full local top-k for
// the global merge to select from). A scatter-gather coordinator spreading
// one query over n shards then performs ≈ the same total filter work as a
// single server, instead of n times it; the candidate pool keeps its total
// size, merely spread across shards, so recall stays at the same operating
// point while the sharded tier stops costing n× the compute per query.
func (s SearchOptions) Partition(n, k int) SearchOptions {
	if n <= 1 {
		return s
	}
	kPrime := s.kPrime(k)
	ef := s.ef(kPrime)
	share := (kPrime + n - 1) / n
	if share < k {
		share = k
	}
	efShare := (ef + n - 1) / n
	if efShare < share {
		efShare = share
	}
	out := s
	out.KPrime = share
	out.EfSearch = efShare
	return out
}

// SearchStats reports the cost split of one search, matching the
// quantities the paper's Figures 6 and 9 plot.
type SearchStats struct {
	FilterTime  time.Duration // k′-ANNS on the SAP graph
	RefineTime  time.Duration // heap selection via secure comparisons
	Candidates  int           // |R′| actually returned by the filter
	Comparisons int           // secure distance comparisons performed
	// Epoch identifies the published snapshot that served the query (the
	// server's mutation count at publication time), so callers — and the
	// concurrency conformance tests — can tie a result set to the exact
	// database state it reflects.
	Epoch uint64
}

// snapshot is one immutable publication of the encrypted database. The
// serving tier is copy-on-write: searches load the current snapshot from an
// atomic pointer and run entirely against it — no lock, no coordination
// with writers — while mutations assemble the next snapshot and publish it
// with a single pointer swap. A snapshot, once published, is never mutated
// again; in-flight searches therefore always finish on the exact database
// state they started with, and the garbage collector reclaims superseded
// snapshots when their last reader drops them.
//
// # Two tiers
//
// The database state is LSM-shaped. Ids below frozen are the main tier,
// whose slots are covered by the frozen filter index edb.Index; ids
// [frozen, edb.Len()) are the delta tier, brute-force scanned at query
// time, one slot each past the main tier's. Every column of edb — the SAP
// rows, the DCE ciphertexts, the PQ codes and the ids — spans both tiers
// in one arena (main prefix, delta suffix), so one distance provider
// scores candidates of either tier, and the refine phase — and every
// consumer of DCE records downstream of it — is tier-blind. Pending deletes from either tier sit
// in tombs, by id, until a compaction gathers the slots that remain into
// a rebuilt main index (see compactOnce).
type snapshot struct {
	edb *EncryptedDatabase
	// frozen is the main tier's id bound: edb.Index covers exactly the
	// slots of the ids below it, which lead the columns (pending
	// tombstones are masked at query time, not applied to the index).
	frozen int
	// tombs is the set of ids deleted since the last compaction, covering
	// both tiers; nil means none. Never mutated once published — Delete
	// publishes a fresh set.
	tombs map[int]struct{}
	// mainDead counts tombs entries below frozen: how many index-live ids
	// are pending deletion, i.e. how far the filter phase must over-fetch
	// so tombstone masking cannot leave the candidate pool short.
	mainDead int
	// epoch is the mutation count: incremented by every Insert/Delete,
	// preserved across compactions (a compaction changes representation,
	// not content — see Epoch).
	epoch uint64
	// gen counts compactions folded into this snapshot.
	gen uint64
}

// tombed reports whether id has a pending tombstone.
func (sp *snapshot) tombed(id int) bool {
	_, ok := sp.tombs[id]
	return ok
}

// clean reports whether the snapshot has no delta tier and no pending
// tombstones — i.e. edb alone is the complete, consistent database.
func (sp *snapshot) clean() bool {
	return sp.delta() == 0 && len(sp.tombs) == 0
}

// delta is the delta tier's record count: every id issued since the last
// fold holds a slot until the next.
func (sp *snapshot) delta() int { return sp.edb.Len() - sp.frozen }

// deadAt reports whether id is deleted in this snapshot, in either
// representation: gone from the columns, or pending in tombs.
func (sp *snapshot) deadAt(id int) bool {
	_, ok := sp.edb.slot(id)
	return !ok || sp.tombed(id)
}

// live is the live record count across both tiers.
func (sp *snapshot) live() int { return sp.edb.Live() - len(sp.tombs) }

// filterInto runs the filter phase over both tiers: a k′-ANNS on the
// frozen main index plus a scan of the delta segment, tombstones masked,
// merged closest-first into dst. On a clean snapshot this is exactly the
// index search. Every candidate distance in both tiers comes from dist,
// the query's one distance provider — squared L2 over the SAP column, or
// the PQ scanner's asymmetric distances over the code arena; both columns
// span every slot. The merge is one top-k′ pool on those keys, so a
// merged list is ordered identically to what a single index over both
// tiers would return. The pool takes the main-tier answer in order, then
// the delta tier in slot order, and keeps equals in arrival order: a tie
// goes to the main tier, and inside the delta to the lower slot. The
// items are slots.
func (sp *snapshot) filterInto(ts *tierScratch, dst []resultheap.Item, q []float64, kPrime, ef int, dist vec.BlockScanner) []resultheap.Item {
	if sp.clean() {
		return sp.edb.Index.SearchIntoDist(dst, q, kPrime, ef, dist)
	}
	// Main tier: over-fetch by the pending main-tier tombstone count so
	// masking cannot leave the pool short of live candidates.
	kMain := kPrime + sp.mainDead
	efMain := ef
	if efMain < kMain {
		efMain = kMain
	}
	ts.main = sp.edb.Index.SearchIntoDist(ts.main[:0], q, kMain, efMain, dist)
	pool := &ts.pool
	pool.Reset()
	ids := sp.edb.ids
	for _, it := range ts.main {
		if sp.mainDead == 0 || !sp.tombed(int(ids[it.ID])) {
			pool.Offer(int32(it.ID), it.Dist, kPrime)
		}
	}
	// Delta tier: one block scan of the live slots of the (small) mutable
	// segment.
	ts.ids = ts.ids[:0]
	for slot := len(ids) - sp.delta(); slot < len(ids); slot++ {
		if !sp.tombed(int(ids[slot])) {
			ts.ids = append(ts.ids, int32(slot))
		}
	}
	ts.dists = slices.Grow(ts.dists[:0], len(ts.ids))[:len(ts.ids)]
	dist.DistBlock(ts.dists, ts.ids)
	for j, id := range ts.ids {
		pool.Offer(id, ts.dists[j], kPrime)
	}
	return pool.AppendItems(dst, kPrime)
}

// defaultCompactAt is the delta-tier bound used when
// ServerOptions.CompactAt is zero: once the delta or the pending-tombstone set
// reaches this many entries, a background compaction folds them into the
// main index.
const defaultCompactAt = 1024

// ServerOptions tunes the serving tier's write path.
type ServerOptions struct {
	// CompactAt bounds the delta tier: when the delta record count or the
	// pending tombstone count reaches it, a background goroutine compacts.
	// 0 selects defaultCompactAt (1024); negative disables automatic compaction
	// (Compact must be called manually).
	CompactAt int
	// WALDir, when non-empty, makes the write path durable: every
	// Insert/Delete is appended to a write-ahead log in this directory
	// before it is acknowledged, and every compaction (or Flush) persists
	// an atomic checkpoint snapshot there. NewServerWith requires a fresh
	// (empty) directory and seeds it with an initial checkpoint; a
	// directory holding an existing log is recovered with OpenServer
	// instead.
	WALDir string
	// WALSync selects the durability policy of the acknowledgment (see
	// wal.SyncPolicy): fsync every write (Every: 1, group-committed),
	// every Nth write, on a background interval, or OS-buffered (zero
	// value).
	WALSync wal.SyncPolicy
	// walFS overrides the log's filesystem, for fault-injection tests.
	walFS wal.FS
}

// Server hosts the encrypted database and answers queries (Figure 1 steps
// 2–3). It never holds keys or plaintexts.
//
// # Concurrency model
//
// Reads are lock-free: Search and every accessor load the current snapshot
// and never block, regardless of concurrent mutations. Insert and Delete
// serialize among themselves on a writer mutex and are O(delta): an insert
// appends to the delta tier (the SAP, DCE and PQ columns), a delete adds a
// pending tombstone — neither clones the frozen filter index. Writers
// publish the result atomically; a failed mutation publishes nothing, so
// there is no window in which the index and ciphertext store can be
// observed desynced.
//
// A background compaction (see Compact) periodically rebuilds the main
// index with the delta folded in and the tombstones dropped, off the read
// path: searches keep running on the old snapshot for the whole rebuild,
// and only the final swap — an O(delta since rebuild started) graft plus a
// pointer store — runs under the writer mutex.
type Server struct {
	snap atomic.Pointer[snapshot]
	wmu  sync.Mutex // serializes Insert/Delete and the compaction swap

	// cmu serializes compactions (manual and background); never held by
	// readers or writers.
	cmu        sync.Mutex
	compacting atomic.Bool
	compactAt  int

	statMu       sync.Mutex
	lastPause    time.Duration
	maxPause     time.Duration
	lastDuration time.Duration
	lastCompErr  error

	// wal, when non-nil, is the attached write-ahead log: mutations
	// append under wmu (so log order equals epoch order) and group-commit
	// after publishing; compactions checkpoint through it.
	wal *wal.Log
}

// NewServer wraps an encrypted database received from the data owner,
// with default write-path options.
func NewServer(edb *EncryptedDatabase) (*Server, error) {
	return NewServerWith(edb, ServerOptions{})
}

// NewServerWith is NewServer with explicit write-path options.
func NewServerWith(edb *EncryptedDatabase, o ServerOptions) (*Server, error) {
	if edb == nil || edb.Index == nil || edb.DCE == nil || edb.Len() == 0 || edb.SAP == nil || edb.SAP.Len() != edb.Live() || edb.DCE.Len() != edb.Live() {
		return nil, fmt.Errorf("core: incomplete encrypted database")
	}
	s := newServer(edb, 0, 0, o)
	if o.WALDir != "" {
		if err := s.attachWAL(edb, o); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newServer serves edb, all of it the main tier, as the snapshot at the
// given epoch and generation, compacting at o.CompactAt. NewServerWith
// and OpenServer both construct through it.
func newServer(edb *EncryptedDatabase, epoch, gen uint64, o ServerOptions) *Server {
	if o.CompactAt == 0 {
		o.CompactAt = defaultCompactAt
	}
	s := &Server{compactAt: o.CompactAt}
	s.snap.Store(&snapshot{edb: edb, frozen: edb.Len(), epoch: epoch, gen: gen})
	return s
}

// Flush compacts until the published snapshot is clean and returns its
// database — what Save and Split should operate on once a server has
// applied mutations, its index and ciphertext store mutually consistent.
// The returned value is immutable: callers may read it freely without
// locking but must not mutate it. On compaction failure (a backend
// violating the rebuild contract) it returns the current (possibly
// delta-carrying) database along with the error.
func (s *Server) Flush() (*EncryptedDatabase, error) {
	for {
		sp := s.snap.Load()
		if sp.clean() {
			return sp.edb, nil
		}
		if err := s.Compact(); err != nil {
			return s.snap.Load().edb, err
		}
	}
}

// Len returns the id space: the number of ids ever issued, deleted ones
// included.
func (s *Server) Len() int { return s.snap.Load().edb.Len() }

// Live returns the number of vectors not deleted — the count users
// actually search over, across both tiers. Len-Live is the deletion count
// (folded away and pending).
func (s *Server) Live() int { return s.snap.Load().live() }

// Epoch returns the current snapshot's mutation count: 0 for the state
// the server was constructed with, incremented by every successful Insert
// or Delete. Compactions do NOT advance the epoch: they change the
// representation, not the content, and the replicated tier's epoch-floor
// consistency check (shard.ReplicaSet) counts applied writes — a replica
// that compacted but missed a write must still read as stale.
func (s *Server) Epoch() uint64 { return s.snap.Load().epoch }

// Dim returns the vector dimension of the hosted database.
func (s *Server) Dim() int { return s.snap.Load().edb.Dim }

// Backend returns the name of the filter-index backend.
func (s *Server) Backend() string { return s.snap.Load().edb.Backend }

// Deleted reports whether an external id is tombstoned, in either tier and
// either representation (compacted away, or pending in the tombstone set).
func (s *Server) Deleted(pos int) bool { return s.snap.Load().deadAt(pos) }

// Search answers a k-ANNS query (Algorithm 2) and returns external ids
// ordered closest-first.
func (s *Server) Search(tok *QueryToken, k int, opt SearchOptions) ([]int, error) {
	ids, _, err := s.SearchInto(nil, tok, k, opt)
	return ids, err
}

// ShardResult is one server's contribution to a scatter-gather search
// (see internal/shard): the result ids in refine order plus the DCE record
// of each, which a coordinator compares across shards with the same kernel
// the refine phase ran. Because DCE query tokens are position-independent,
// the records compare correctly against records from any other shard of
// the same deployment.
type ShardResult struct {
	// IDs are the result ids, closest first (server-local positions).
	IDs []int
	// Epoch is the publication count of the snapshot that served the
	// query (see SearchStats.Epoch). The replicated shard tier uses it
	// for read-your-writes consistency: a replica answering below the
	// coordinator's write floor is stale and the read fails over.
	Epoch uint64
	// Recs[i] is the DCE record [P1|P2|P3|P4] of IDs[i]: a view into the
	// serving snapshot's arena in process — published records are never
	// written again, so the view stays valid for as long as it is held —
	// and a view into the frame's arena off the wire.
	Recs [][]float64
}

// SearchShard answers a query like Search and additionally returns each
// result's DCE record, so a scatter-gather coordinator can order this
// server's results against other shards'. Only the paper's scheme has
// records to merge by: the filter-only mode is refused.
func (s *Server) SearchShard(tok *QueryToken, k int, opt SearchOptions) (ShardResult, error) {
	if opt.Refine != RefineDCE {
		return ShardResult{}, fmt.Errorf("core: a merge answer needs the DCE refine, not %v", opt.Refine)
	}
	sp := s.snap.Load()
	slots, st, err := sp.search(nil, tok, k, opt)
	if err != nil {
		return ShardResult{}, err
	}
	recs := make([][]float64, len(slots))
	for i, slot := range slots {
		recs[i] = sp.edb.DCE.Record(slot)
	}
	sp.edb.toIDs(slots)
	return ShardResult{IDs: slots, Epoch: st.Epoch, Recs: recs}, nil
}

// SearchInto is Search plus cost accounting, appending the result ids into
// dst (whose capacity is reused; pass nil to allocate). All per-query
// working state — filter items, candidate list, refine heap — comes from an
// internal pool, so with a recycled dst a steady-state search performs zero
// allocations.
func (s *Server) SearchInto(dst []int, tok *QueryToken, k int, opt SearchOptions) ([]int, SearchStats, error) {
	sp := s.snap.Load()
	dst, st, err := sp.search(dst, tok, k, opt)
	sp.edb.toIDs(dst)
	return dst, st, err
}

// search is the shared search body of Server.SearchInto and SearchShard.
// It appends the results' slots to dst; each caller maps them to ids once.
//
// k, k′ and dst are sized only after the request has been validated and k
// and k′ clamped to the snapshot's record count — a query cannot return
// more ids than exist — so every allocation a request can cause here is
// O(records), whatever k arrived from the wire. The beam width is not clamped
// here: each backend bounds the effort it derives from it (IVF by its list
// count, HNSW by its node count).
//
// The whole body runs lock-free against one immutable snapshot, which
// writers never touch — they publish whole new snapshots instead. The
// filter phase searches both tiers (filterInto); the refine phase is
// tier-blind, because the DCE store spans both tiers in one arena.
func (sp *snapshot) search(dst []int, tok *QueryToken, k int, opt SearchOptions) ([]int, SearchStats, error) {
	var st SearchStats
	if tok == nil || tok.SAP == nil {
		return dst[:0], st, fmt.Errorf("core: query token missing SAP ciphertext")
	}
	if k <= 0 {
		return dst[:0], st, fmt.Errorf("core: non-positive k %d", k)
	}
	edb := sp.edb
	st.Epoch = sp.epoch
	// Dimension checks up front: the index and comparison backends panic
	// on mismatched vectors, which must not be reachable from the wire.
	if len(tok.SAP) != edb.Dim {
		return dst[:0], st, fmt.Errorf("core: query token has dim %d, want %d", len(tok.SAP), edb.Dim)
	}

	kPrime := opt.kPrime(k)
	if kPrime < k {
		kPrime = k
	}
	ef := opt.ef(kPrime)
	n := edb.Live()
	k, kPrime = min(k, n), min(kPrime, n)

	sc := getScratch()
	defer putScratch(sc)

	// Filter phase (Algorithm 2 line 1): k′-ANNS over SAP ciphertexts,
	// both tiers merged, every distance from one provider. With FilterPQ
	// the asymmetric distance table is computed once here; every candidate
	// the walk touches then costs M byte-indexed lookups instead of a
	// dim-float memory sweep.
	var dist vec.BlockScanner
	switch opt.FilterDist {
	case FilterExact:
		dist = sc.exact.Bind(edb.SAP, tok.SAP)
	case FilterPQ:
		if edb.PQ == nil {
			return dst[:0], st, fmt.Errorf("core: FilterPQ requested but database carries no PQ store (build with Params.PQ)")
		}
		sc.pqsc.Prepare(edb.PQ.Book, edb.PQ.Codes, tok.SAP)
		dist = &sc.pqsc
	default:
		return dst[:0], st, fmt.Errorf("core: unknown filter distance mode %d", opt.FilterDist)
	}
	start := time.Now()
	sc.items = sp.filterInto(&sc.tier, sc.items[:0], tok.SAP, kPrime, ef, dist)
	st.FilterTime = time.Since(start)
	st.Candidates = len(sc.items)
	if len(sc.items) == 0 {
		return dst[:0], st, nil
	}

	sc.cands = sc.cands[:0]
	for _, it := range sc.items {
		sc.cands = append(sc.cands, it.ID)
	}
	cands := sc.cands
	if want := min(k, len(cands)); cap(dst) < want {
		dst = make([]int, 0, want) // exact-size result buffer: one allocation, no append growth
	}

	// Refine phase (Algorithm 2 lines 2–9).
	start = time.Now()
	switch opt.Refine {
	case RefineNone:
		if len(cands) > k {
			cands = cands[:k]
		}
		dst = append(dst[:0], cands...)
	case RefineDCE:
		if tok.Trapdoor == nil {
			return dst[:0], st, fmt.Errorf("core: token lacks DCE trapdoor for refine")
		}
		// The trapdoor dimension is checked once here; every heap
		// comparison then runs the kernel with no per-call check.
		if err := edb.DCE.CheckTrapdoor(tok.Trapdoor); err != nil {
			return dst[:0], st, fmt.Errorf("core: %w", err)
		}
		// A filter backend out of step with the ciphertext store must
		// surface as a wire-safe error, never as an out-of-range panic in
		// the serving process.
		for _, slot := range cands {
			if slot < 0 || slot >= n {
				return dst[:0], st, fmt.Errorf("core: filter index returned slot %d with no DCE ciphertext", slot)
			}
		}
		cmp := &sc.dce
		*cmp = dceComparator{store: edb.DCE, tq: tok.Trapdoor, cands: cands}
		dst, st.Comparisons = refineScratch(sc, cands, k, cmp, dst)
	default:
		return dst[:0], st, fmt.Errorf("core: unknown refine mode %d", opt.Refine)
	}
	st.RefineTime = time.Since(start)
	return dst, st, nil
}

// mutation is one write: an insert of payload p at id, or a delete of id.
// Insert and Delete, WAL replay and the log's payload codec all carry it,
// so a replayed write is the live one.
type mutation struct {
	kind wal.Kind // wal.KindInsert or wal.KindDelete
	id   int
	p    *InsertPayload // insert only
}

// nextID is the id an Insert names: the next one, read under the writer
// mutex.
const nextID = -1

// Insert adds one encrypted vector (Section V-D) and returns its external
// id. Deletion tombstones are not reused; ids grow monotonically. Every
// backend accepts inserts: they land in the delta tier, not the frozen
// index, which a fold rebuilds.
//
// Insert is O(1)-ish: it appends the SAP vector and the DCE ciphertext to
// their column arenas, and with a PQ tier the SAP vector's code under the
// published codebook (appendRow), past every published snapshot's length,
// and publishes a new snapshot — no index clone, no work proportional to
// the database size beyond an arena's doubling. A failed insert
// (validation, or a WAL append failure) publishes nothing.
//
// With a WAL attached the insert is append-then-ack: the encrypted payload
// (SAP + DCE record) is logged before the snapshot publishes, and the call
// returns only once the record is durable per the configured sync policy.
// A non-nil error alongside a valid id means the insert is applied in
// memory but its durability is unknown (a failed fsync poisons the log;
// subsequent writes fail fast).
func (s *Server) Insert(p *InsertPayload) (int, error) {
	return s.write(mutation{kind: wal.KindInsert, id: nextID, p: p})
}

// Delete removes the vector with the given external id (Section V-D).
// Server-only — no data-owner participation, as the paper notes. The
// delete is a pending tombstone: searches mask the id immediately (it is
// fully gone from the next snapshot's results), and the next compaction
// drops the ciphertext bytes and rebuilds the index with the id dead. O(tombs)
// per call (the pending set is copied), independent of database size.
func (s *Server) Delete(pos int) error {
	_, err := s.write(mutation{kind: wal.KindDelete, id: pos})
	return err
}

// write is the one body of every live mutation: under the writer mutex it
// checks m against the published snapshot, logs it (so log order is epoch
// order) and applies it; then it waits for the log record to commit and
// triggers a compaction when the delta has outgrown its bound. It returns
// the mutation's id.
func (s *Server) write(m mutation) (int, error) {
	s.wmu.Lock()
	cur := s.snap.Load()
	if m.kind == wal.KindInsert && m.id == nextID {
		m.id = cur.edb.Len()
	}
	if err := cur.check(m); err != nil {
		s.wmu.Unlock()
		return 0, fmt.Errorf("core: %w", err)
	}
	var lsn uint64
	if s.wal != nil {
		var err error
		if lsn, err = s.wal.Append(m.kind, cur.epoch+1, appendMutation(nil, m)); err != nil {
			s.wmu.Unlock()
			return 0, fmt.Errorf("core: wal append: %w", err)
		}
	}
	s.apply(cur, m)
	s.wmu.Unlock()
	if s.wal != nil {
		if err := s.wal.Commit(lsn); err != nil {
			return m.id, fmt.Errorf("core: wal commit: %w", err)
		}
	}
	s.maybeCompact()
	return m.id, nil
}

// check refuses a mutation that does not fit the snapshot's database: an
// insert that is incomplete, not at the next id, past the int32 id space,
// or whose SAP vector or DCE record has another shape; a delete of an id
// that is not live (never assigned, folded away, or pending in tombs).
func (sp *snapshot) check(m mutation) error {
	edb := sp.edb
	n := edb.Len()
	if m.kind == wal.KindDelete {
		if m.id < 0 || m.id >= n {
			return fmt.Errorf("delete of unknown id %d", m.id)
		}
		if sp.deadAt(m.id) {
			return fmt.Errorf("id %d already deleted", m.id)
		}
		return nil
	}
	switch p := m.p; {
	case p == nil || p.SAP == nil || p.DCE == nil:
		return fmt.Errorf("incomplete insert payload")
	case m.id != n:
		return fmt.Errorf("insert at id %d, next id is %d", m.id, n)
	case n == math.MaxInt32:
		return fmt.Errorf("the id space is full at %d ids", n)
	case len(p.SAP) != edb.Dim:
		return fmt.Errorf("insert payload has dim %d, want %d", len(p.SAP), edb.Dim)
	case len(p.DCE) != 4*edb.DCE.CtDim():
		return fmt.Errorf("insert DCE ciphertext of %d floats, want 4·%d", len(p.DCE), edb.DCE.CtDim())
	}
	return nil
}

// apply publishes the snapshot that follows cur by the checked mutation m.
// An insert appends its row to the delta tier — past every published
// snapshot's length, so invisible to in-flight readers and to the index,
// whose rows end at the main tier — and a delete adds a pending tombstone.
// Caller holds wmu.
func (s *Server) apply(cur *snapshot, m mutation) {
	next := *cur
	next.epoch++
	if m.kind == wal.KindInsert {
		next.edb = cur.edb.clone()
		next.edb.appendRow(m.p.SAP, m.p.DCE)
	} else {
		next.tombs = make(map[int]struct{}, len(cur.tombs)+1)
		maps.Copy(next.tombs, cur.tombs)
		next.tombs[m.id] = struct{}{}
		if m.id < cur.frozen {
			next.mainDead++
		}
	}
	s.snap.Store(&next)
}

// CompactionStats is a point-in-time view of the write path's two-tier
// state and compaction history.
type CompactionStats struct {
	// Epoch is the snapshot's mutation count (see Server.Epoch).
	Epoch uint64
	// Generation counts compactions folded into the snapshot.
	Generation uint64
	// Len is the id space and Live the records not deleted (see
	// Server.Len and Server.Live).
	Len, Live int
	// Frozen is the main tier's id bound (the frozen index covers the
	// live ids below it); Delta is the delta-tier record count
	// (Len-Frozen); Tombstones is the pending tombstone count awaiting
	// compaction.
	Frozen, Delta, Tombstones int
	// Compacting reports whether a background compaction is running.
	Compacting bool
	// LastPause is the writer-blocking swap window of the most recent
	// compaction — the only part of a compaction that holds the writer
	// mutex. MaxPause is the largest such window since construction.
	// LastDuration is the most recent compaction's full wall time,
	// rebuild included.
	LastPause, MaxPause, LastDuration time.Duration
	// LastError is the most recent compaction failure, or "" — a failed
	// compaction publishes nothing, so the snapshot stays consistent.
	LastError string
}

// CompactionStats reports the current two-tier state and compaction
// history.
func (s *Server) CompactionStats() CompactionStats {
	sp := s.snap.Load()
	cs := CompactionStats{
		Epoch:      sp.epoch,
		Generation: sp.gen,
		Len:        sp.edb.Len(),
		Live:       sp.live(),
		Frozen:     sp.frozen,
		Delta:      sp.delta(),
		Tombstones: len(sp.tombs),
		Compacting: s.compacting.Load(),
	}
	s.statMu.Lock()
	cs.LastPause = s.lastPause
	cs.MaxPause = s.maxPause
	cs.LastDuration = s.lastDuration
	if s.lastCompErr != nil {
		cs.LastError = s.lastCompErr.Error()
	}
	s.statMu.Unlock()
	return cs
}

// MemoryStats is the published snapshot's memory footprint split by
// serving tier, in bytes per live record: the padded SAP vector row the
// filter phase streams, the DCE ciphertext record the refine phase reads,
// and — when the compressed tier is attached — the PQ code rows plus the
// codebook, divided by Live. DeltaBytes is the absolute un-compacted
// write-path bloat on top: the delta-tier records awaiting the next fold,
// each a SAP row, a DCE record and, with a PQ tier, a code row.
type MemoryStats struct {
	// N is Len(): the id space, deleted ids included.
	N int
	// Live is Live(): the records not deleted. Every per-record figure
	// divides by it.
	Live       int
	SAP        float64
	DCE        float64
	PQCodes    float64
	PQBook     float64
	DeltaBytes int
}

// MemoryStats reports the per-tier memory breakdown of the current
// snapshot. All figures read one snapshot, so they are never torn across
// a concurrent mutation.
func (s *Server) MemoryStats() MemoryStats {
	sp := s.snap.Load()
	m := MemoryStats{
		N:          sp.edb.Len(),
		Live:       sp.live(),
		SAP:        float64(8 * vec.PadStride(sp.edb.Dim)),
		DCE:        float64(8 * sp.edb.DCE.Stride()),
		DeltaBytes: sp.delta() * 8 * (sp.edb.DCE.Stride() + sp.edb.SAP.Stride()),
	}
	if pqs := sp.edb.PQ; pqs != nil && m.Live > 0 {
		m.PQCodes = float64(len(pqs.Codes.Raw())) / float64(m.Live)
		m.PQBook = float64(pqs.Book.SizeBytes()) / float64(m.Live)
		m.DeltaBytes += sp.delta() * pqs.Codes.Stride()
	}
	return m
}

// overThreshold reports whether the snapshot's pending write state has
// outgrown the configured compaction trigger.
func (s *Server) overThreshold(sp *snapshot) bool {
	return s.compactAt >= 0 && (sp.delta() >= s.compactAt || len(sp.tombs) >= s.compactAt)
}

// maybeCompact starts the background compactor if the pending write state
// has outgrown the triggers and no compaction is already running. Called
// after every mutation, outside the writer mutex.
func (s *Server) maybeCompact() {
	if !s.overThreshold(s.snap.Load()) {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		s.cmu.Lock()
		defer s.cmu.Unlock()
		defer s.compacting.Store(false)
		// Loop: mutations that arrived during a fold may already exceed
		// the trigger again. A failed compaction stops the loop (the
		// error is recorded in CompactionStats); the next mutation
		// re-triggers.
		for s.overThreshold(s.snap.Load()) {
			if err := s.compactOnce(); err != nil {
				return
			}
		}
	}()
}

// Compact synchronously folds the delta tier and pending tombstones into
// a rebuilt main index (see compactOnce). Manual control for operators;
// the background trigger calls the same fold. A no-op on a clean snapshot.
func (s *Server) Compact() error {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.compactOnce()
}

// compactOnce performs one fold. Caller holds cmu (never wmu).
//
// The expensive work — gathering vectors, rebuilding the index, repacking
// the ciphertext arena — runs against a fixed base snapshot with no locks
// held, so searches and mutations proceed throughout. Mutations that
// landed after the base snapshot are grafted onto the rebuilt state in
// two phases: the bulk of the tail is copied lock-free, then the swap
// takes the writer mutex to graft whatever landed during the copy
// (appended records re-enter the new delta tier; new tombstones stay
// pending) and publishes the result atomically. In-flight readers keep
// their old snapshots.
//
// The epoch is preserved: compaction is not a mutation (see Epoch). The
// generation counter advances instead.
func (s *Server) compactOnce() error {
	err := s.compactFold()
	s.statMu.Lock()
	s.lastCompErr = err
	s.statMu.Unlock()
	return err
}

// compactFold is the fold: the gather (relayout.go) of the base
// snapshot's slots whose ids are not pending deletion, ids kept, with the
// index Rebuilt under the serving configuration; then foldPQ's 2× retrain
// rule. No deleted record survives the fold in any column, and the id
// space never shifts (shard striping and user-visible ids depend on it).
// The old chain keeps serving in-flight readers. The pre-graft and the
// swap graft follow, each appending through appendRow, so a grafted
// record's code is derived under the folded codebook whether or not the
// fold retrained it, and its id is the next one, as it was.
func (s *Server) compactFold() error {
	start := time.Now()
	base := s.snap.Load()
	if base.clean() {
		return nil
	}
	edb := base.edb
	n, baseSlots := edb.Len(), edb.Live()

	slots := make([]int, 0, base.live())
	ids := make([]int32, 0, base.live())
	for slot, id := range edb.ids {
		if !base.tombed(int(id)) {
			slots, ids = append(slots, slot), append(ids, id)
		}
	}
	folded, err := edb.gather(slots, ids, n)
	if err != nil {
		return fmt.Errorf("core: compaction: %w", err)
	}
	if err := foldPQ(folded); err != nil {
		return fmt.Errorf("core: compaction: %w", err)
	}

	// Pre-graft the bulk of the post-snapshot tail with no locks held.
	// Records past the base snapshot's length are append-only and
	// immutable once visible in a published snapshot, so they are safe to
	// copy here; the locked section below then carries only the handful
	// of records that land while this loop runs. The reservations pull
	// the repacked arenas' first regrowth (a full-arena copy — Gather and
	// the index build allocate them exactly full) out of the writers'
	// critical section. They are made on folded's own headers: the rebuilt
	// index holds the gathered SAP column's header itself, so the
	// reservation moves the one arena under both, and next, cloned after
	// them, appends into that arena past the index's rows. folded keeps
	// the base snapshot's content (epoch base.epoch) and is the checkpoint
	// image; the grafts only append past its lengths, so it stays
	// bit-stable while the checkpoint file is written after the swap.
	pre := s.snap.Load()
	preSlots := pre.edb.Live()
	grow := preSlots - baseSlots + 64
	folded.DCE.Reserve(grow)
	folded.SAP.Reserve(grow)
	if folded.PQ != nil {
		folded.PQ.Codes.Reserve(grow)
	}
	folded.ids = slices.Grow(folded.ids, grow)
	next := folded.clone()
	for g := baseSlots; g < preSlots; g++ {
		next.appendRow(pre.edb.SAP.At(g), pre.edb.DCE.Record(g))
	}

	// Swap under the writer mutex, grafting everything that happened
	// after the pre-graft: records appended since become the new delta
	// tier, tombstones added since stay pending.
	swapStart := time.Now()
	s.wmu.Lock()
	cur := s.snap.Load()
	for g := preSlots; g < cur.edb.Live(); g++ {
		next.appendRow(cur.edb.SAP.At(g), cur.edb.DCE.Record(g))
	}
	var tombs map[int]struct{}
	mainDead := 0
	for t := range cur.tombs {
		if base.tombed(t) {
			continue // folded into the rebuilt state
		}
		if tombs == nil {
			tombs = make(map[int]struct{}, len(cur.tombs))
		}
		tombs[t] = struct{}{}
		if t < n {
			mainDead++
		}
	}
	s.snap.Store(&snapshot{
		edb:      next,
		frozen:   n,
		tombs:    tombs,
		mainDead: mainDead,
		epoch:    cur.epoch, // representation change, not a mutation
		gen:      cur.gen + 1,
	})
	s.wmu.Unlock()

	pause := time.Since(swapStart)
	s.statMu.Lock()
	s.lastPause = pause
	if pause > s.maxPause {
		s.maxPause = pause
	}
	s.lastDuration = time.Since(start)
	s.statMu.Unlock()

	// Persist the fold as the log's new recovery base. The fold itself is
	// already published — a checkpoint failure doesn't undo it, it means
	// recovery still starts from the previous checkpoint (and the error
	// surfaces through Compact/Flush/CompactionStats; a failed fsync also
	// poisons the log, failing subsequent writes fast).
	if s.wal != nil {
		if err := s.walCheckpoint(folded, base.epoch, base.gen+1); err != nil {
			return err
		}
	}
	return nil
}
