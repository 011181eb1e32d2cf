// Package shard scales the PP-ANNS serving tier horizontally: a
// scatter-gather Coordinator partitions one encrypted database across N
// core.Server shards — in-process or remote over transport — fans every
// query token out to all of them concurrently, and merges the per-shard
// top-k into the global top-k.
//
// The scheme supports this for free: search is read-only, and a DCE
// trapdoor is position-independent — it compares ciphertext records no
// matter which machine stores them. Each shard therefore answers with its
// local top-k plus each result's DCE record (core.ShardResult). Every
// shard's list is already closest-first, so the coordinator k-way merges
// the N sorted lists with the refine phase's comparison — one DCE
// comparison per head-to-head (k of them at 2 shards) — instead of
// re-running Algorithm 2's heap over all N·k candidates. The merged result
// is exactly what an unsharded server would return whenever the
// shard-local candidate sets cover the true top-k. The filter-only
// ablation (core.RefineNone) has no records to merge by and is refused.
//
// # Id remapping
//
// External (global) ids are striped: global id g lives on shard g % N as
// local position g / N (Mapping). This is the partition
// core.EncryptedDatabase.Split produces, and it stays valid under
// coordinator-routed updates: inserting global id G = Len() lands on shard
// G % N exactly when that shard holds G / N records, which round-robin
// growth preserves; deletes tombstone in place and never shift ids.
//
// # Replicas
//
// Each stripe is served by interchangeable replicas (NewReplicated). A
// remote replica is a *transport.Client, which redials itself after a
// stream failure. A read goes to one replica and fails over to a sibling;
// a write goes to every replica, and an epoch floor routes reads around
// one that missed a write. Every replica has a circuit breaker: 3
// consecutive failures open it for 50 ms, and each failed probe doubles
// that, up to 5 s. An error the replica answered with
// (transport.ErrRefused) is not a failure, and a refused read is not
// retried on a sibling, which would refuse it too.
package shard

import (
	"fmt"

	"ppanns/internal/core"
	"ppanns/internal/transport"
)

// Mapping is the arithmetic bijection between global external ids and
// (shard, local position) pairs under striped partitioning.
type Mapping struct {
	// Shards is N, the shard count.
	Shards int
}

// Locate returns the shard owning a global id and its local position there.
func (m Mapping) Locate(global int) (shard, local int) {
	return global % m.Shards, global / m.Shards
}

// global returns the global id of a shard-local position.
func (m Mapping) global(shard, local int) int {
	return local*m.Shards + shard
}

// count returns how many of the global ids 0..total-1 a shard owns.
func (m Mapping) count(shard, total int) int {
	return (total - shard + m.Shards - 1) / m.Shards
}

// Shard is the coordinator's view of one partition server. Both Local
// (wrapping an in-process *core.Server) and *transport.Client (a remote
// server speaking the wire protocol, which redials itself after a stream
// failure) satisfy it. An error the server itself answered with — a
// refusal of the request, not a fault of the replica — matches
// transport.ErrRefused.
type Shard interface {
	// SearchShardCancel answers one query with local ids in refine order
	// plus their DCE records. Closing cancel (nil never fires) may abandon
	// the call with transport.ErrAbandoned: a hedged read discards its
	// loser that way. A shard that cannot abandon a search finishes it.
	SearchShardCancel(cancel <-chan struct{}, tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error)
	// Insert appends one encrypted vector and returns its local position.
	Insert(p *core.InsertPayload) (int, error)
	// Delete tombstones a local position.
	Delete(local int) error
	// Info reports the shard's backend and shape, including
	// its record count (tombstones included) as Info.N.
	Info() (transport.Info, error)
}

// Local adapts an in-process *core.Server to the Shard interface. Every
// error the server returns is its answer, marked with transport.Refused as
// the wire marks a remote server's.
type Local struct {
	Srv *core.Server
}

// SearchShardCancel answers one query against the wrapped server; an
// in-process search cannot be abandoned midway, so cancel is ignored. The
// records are views into the snapshot's ciphertext arena, not copies —
// the snapshot is immutable, so they stay valid for the life of the
// result.
func (l Local) SearchShardCancel(_ <-chan struct{}, tok *core.QueryToken, k int, opt core.SearchOptions) (core.ShardResult, error) {
	res, err := l.Srv.SearchShard(tok, k, opt)
	return res, transport.Refused(err)
}

// Insert appends one encrypted vector.
func (l Local) Insert(p *core.InsertPayload) (int, error) {
	id, err := l.Srv.Insert(p)
	return id, transport.Refused(err)
}

// Delete tombstones a local position.
func (l Local) Delete(local int) error { return transport.Refused(l.Srv.Delete(local)) }

// Info reports the wrapped server's backend and shape.
func (l Local) Info() (transport.Info, error) { return transport.ServerInfo(l.Srv), nil }

// ShardError attributes a failure to the shard that raised it, so a dead
// or misbehaving partition is identifiable from the error alone.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d: %v", e.Shard, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }
