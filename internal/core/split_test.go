package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"ppanns/internal/index"
	"ppanns/internal/vec"
)

func TestSplitPartitionsStripe(t *testing.T) {
	const n, dim, shards = 500, 8, 3
	data := clustered(31, n, dim, 5)
	w := newWorld(t, Params{Dim: dim, Beta: 0.3, Seed: 31}, data)
	edb := flushed(t, w.server)

	// Tombstone a couple of ids before splitting so the stripe has holes.
	for _, id := range []int{4, 7} {
		if err := w.server.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	parts, err := edb.Split(shards, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != shards {
		t.Fatalf("Split returned %d shards, want %d", len(parts), shards)
	}
	var total, live int
	for s, p := range parts {
		wantCnt := (n - s + shards - 1) / shards
		if p.Len() != wantCnt {
			t.Fatalf("shard %d holds %d ids, want %d", s, p.Len(), wantCnt)
		}
		if p.Dim != dim || p.Backend != edb.Backend {
			t.Fatalf("shard %d shape %d/%q, want %d/%q", s, p.Dim, p.Backend, dim, edb.Backend)
		}
		total += p.Len()
		live += p.Live()
		// Every local record must be a bit-exact copy of its global record,
		// and a deleted global id a deleted local one.
		for local := 0; local < p.Len(); local++ {
			g := local*shards + s
			ps, pok := p.slot(local)
			es, eok := edb.slot(g)
			if pok != eok {
				t.Fatalf("shard %d local %d liveness %v, global id %d is %v", s, local, pok, g, eok)
			}
			if pok && !slices.Equal(p.DCE.Record(ps), edb.DCE.Record(es)) {
				t.Fatalf("shard %d local %d record differs from global id %d", s, local, g)
			}
		}
		if p.Index.Len() != p.Live() {
			t.Fatalf("shard %d index holds %d, store %d", s, p.Index.Len(), p.Live())
		}
	}
	if total != n {
		t.Fatalf("shards hold %d ids total, want %d", total, n)
	}
	if live != edb.Live() {
		t.Fatalf("shards hold %d live records, want %d", live, edb.Live())
	}

	// Each shard must answer queries as a standalone server.
	for s, p := range parts {
		srv, err := NewServer(p)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		ids, err := srv.Search(mustToken(t, w, data[0]), 3, SearchOptions{KPrime: 24})
		if err != nil {
			t.Fatalf("shard %d search: %v", s, err)
		}
		if len(ids) == 0 {
			t.Fatalf("shard %d returned no results", s)
		}
	}
}

// TestOneStripeSplitSavesItsInput: a split is the fold, so each stripe's
// index is rebuilt under the source index's own configuration, whatever
// options the call passes. A one-stripe split of a database holding no
// tombstone therefore saves the source's bytes, on hnsw (at M=8,
// efConstruction 64, not the defaults), ivf and ivf+PQ, and each stripe of
// a three-way split, split again into one stripe, saves its own bytes.
func TestOneStripeSplitSavesItsInput(t *testing.T) {
	const n, dim = 240, 8
	data := clustered(35, n, dim, 4)
	for _, c := range []struct {
		name   string
		params Params
	}{
		{"hnsw", Params{Dim: dim, Beta: 0.3, Seed: 35, Index: "hnsw", IndexOptions: index.Options{M: 8, EfConstruction: 64}}},
		{"ivf", Params{Dim: dim, Beta: 0.3, Seed: 36, Index: "ivf"}},
		{"ivf+pq", Params{Dim: dim, Beta: 0.3, Seed: 37, Index: "ivf", PQ: true, PQM: 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			owner, err := NewDataOwner(c.params)
			if err != nil {
				t.Fatal(err)
			}
			edb, err := owner.EncryptDatabase(data)
			if err != nil {
				t.Fatal(err)
			}
			one := func(e *EncryptedDatabase) []byte {
				t.Helper()
				parts, err := e.Split(1, index.Options{M: 16, EfConstruction: 200, Seed: 9})
				if err != nil {
					t.Fatal(err)
				}
				return saveBytes(t, parts[0])
			}
			if !bytes.Equal(one(edb), saveBytes(t, edb)) {
				t.Fatal("a one-stripe split of a fresh database saves other bytes than its input")
			}
			parts, err := edb.Split(3, index.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for s, p := range parts {
				if !bytes.Equal(one(p), saveBytes(t, p)) {
					t.Fatalf("stripe %d, split again into one stripe, saves other bytes than itself", s)
				}
			}
		})
	}
}

func TestSplitValidation(t *testing.T) {
	data := clustered(32, 40, 6, 3)
	w := newWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 32}, data)
	if _, err := flushed(t, w.server).Split(0, index.Options{}); err == nil {
		t.Fatal("expected error for zero shard count")
	}
	if _, err := flushed(t, w.server).Split(41, index.Options{}); err == nil {
		t.Fatal("expected error for more shards than vectors")
	}
	if parts, err := flushed(t, w.server).Split(1, index.Options{}); err != nil || len(parts) != 1 {
		t.Fatalf("single-shard split: %d parts, %v", len(parts), err)
	}
	// Every stripe's rebuild breaks the index contract; the stripes are
	// built side by side, and the error is the lowest-numbered stripe's.
	broken := *flushed(t, w.server)
	broken.Index = &contractBreaker{SecureIndex: broken.Index, breakRebuild: true}
	parts, err := broken.Split(3, index.Options{})
	if err == nil || !strings.HasPrefix(err.Error(), "core: shard 0: ") || parts != nil {
		t.Fatalf("split through a contract-violating backend: %d stripes, %v; want none and a shard 0 error", len(parts), err)
	}
}

// contractBreaker wraps a SecureIndex, dropping the last row from
// Rebuild's column — the backend misbehavior a compaction must reject
// without publishing anything.
type contractBreaker struct {
	index.SecureIndex
	breakRebuild bool
}

func (b *contractBreaker) Rebuild(rows *vec.Dataset, ids []int32) (index.SecureIndex, error) {
	if b.breakRebuild && len(ids) > 1 {
		// Leave the last row out: the rebuilt index no longer holds what
		// the ciphertext store does.
		rows, ids = rows.Gather(seqIDs(len(ids)-1)), ids[:len(ids)-1]
	}
	return b.SecureIndex.Rebuild(rows, ids)
}

// TestCompactionContractViolationLeavesSnapshotUntouched pins the payoff
// of off-path compaction: a backend violating the rebuild id contract
// fails the compaction, but the violation happened on a private rebuild
// that is simply never published — no rollback, no possible desync, no
// wedged server. Searches keep answering from the two-tier snapshot, and
// once the backend behaves again the same pending delta compacts cleanly.
func TestCompactionContractViolationLeavesSnapshotUntouched(t *testing.T) {
	const n, dim = 200, 6
	data := clustered(34, n, dim, 3)
	w := newWorldWith(t, Params{Dim: dim, Beta: 0.3, Seed: 34}, ServerOptions{CompactAt: -1}, data)
	breaker := &contractBreaker{SecureIndex: w.server.snap.Load().edb.Index, breakRebuild: true}
	w.server.snap.Load().edb.Index = breaker

	payload, err := w.owner.EncryptVector(data[0])
	if err != nil {
		t.Fatal(err)
	}
	id, err := w.server.Insert(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != n {
		t.Fatalf("delta insert landed at id %d, want %d", id, n)
	}
	if err := w.server.Compact(); err == nil || !strings.Contains(err.Error(), "compaction") {
		t.Fatalf("Compact through a contract-violating backend: err = %v, want compaction error", err)
	}
	// The published snapshot still carries the delta, consistently: the
	// insert is searchable, the epoch unchanged, nothing desynced.
	if got := w.server.Epoch(); got != 1 {
		t.Fatalf("failed compaction changed epoch to %d, want 1", got)
	}
	cs := w.server.CompactionStats()
	if cs.Generation != 0 || cs.Delta != 1 || cs.LastError == "" {
		t.Fatalf("failed compaction stats = %+v, want generation 0, delta 1, recorded error", cs)
	}
	if _, err := w.server.Search(mustToken(t, w, data[0]), 3, SearchOptions{KPrime: 24}); err != nil {
		t.Fatalf("Search after failed compaction: %v", err)
	}
	// The server is not wedged: with the backend behaving again, the same
	// pending delta folds cleanly.
	breaker.breakRebuild = false
	if err := w.server.Compact(); err != nil {
		t.Fatalf("Compact after un-breaking the backend: %v", err)
	}
	cs = w.server.CompactionStats()
	if cs.Generation != 1 || cs.Delta != 0 || cs.Frozen != n+1 || cs.LastError != "" {
		t.Fatalf("recovered compaction stats = %+v, want generation 1, delta 0, frozen %d", cs, n+1)
	}
	if got := w.server.Epoch(); got != 1 {
		t.Fatalf("compaction changed epoch to %d, want 1 (epoch counts mutations, not folds)", got)
	}
}
