package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppanns/internal/index"
	"ppanns/internal/rng"
)

// exhaustiveOpt returns search options that make the filter phase return
// every live candidate: k′ and the beam budget both exceed the database
// size, so the candidate set is the whole live id space on every backend
// (HNSW reaches all connected nodes, IVF probes every list). With the full
// candidate set, the exact DCE refine makes the result independent of which
// filter index produced it — the lever the conformance tests below pull.
func exhaustiveOpt(n int) SearchOptions {
	return SearchOptions{KPrime: 2 * n, EfSearch: 16 * n}
}

// searchAll runs queries at exhaustive k′ and returns the result lists.
func searchAll(t *testing.T, srv *Server, toks []*QueryToken, k, n int) [][]int {
	t.Helper()
	out := make([][]int, len(toks))
	for i, tok := range toks {
		ids, err := srv.Search(tok, k, exhaustiveOpt(n))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		out[i] = ids
	}
	return out
}

func sameResults(t *testing.T, label string, want, got [][]int) {
	t.Helper()
	for qi := range want {
		if len(want[qi]) != len(got[qi]) {
			t.Fatalf("%s: query %d returned %d ids, want %d", label, qi, len(got[qi]), len(want[qi]))
		}
		for i := range want[qi] {
			if want[qi][i] != got[qi][i] {
				t.Fatalf("%s: query %d rank %d: id %d, want %d (%v vs %v)",
					label, qi, i, got[qi][i], want[qi][i], got[qi], want[qi])
			}
		}
	}
}

// TestDeltaAccountingAcrossCompaction is the regression test for the
// cross-tier Deleted/Live bookkeeping: a delta-resident id that is deleted
// before its tier is ever compacted must stay dead — in Deleted, in Live,
// and in search results — after the compaction folds it, and ids must keep
// growing monotonically across the fold.
func TestDeltaAccountingAcrossCompaction(t *testing.T) {
	const n, dim = 200, 8
	data := clustered(101, n, dim, 4)
	w := newWorldWith(t, Params{Dim: dim, Beta: 0.3, Seed: 101}, ServerOptions{CompactAt: -1}, data)

	// Main-tier delete: pending tombstone.
	if err := w.server.Delete(5); err != nil {
		t.Fatal(err)
	}
	// Two delta inserts, then delete the first while it is still
	// delta-resident.
	r := rng.NewSeeded(102)
	v1, v2 := rng.GaussianVec(r, dim, 25), rng.GaussianVec(r, dim, 25)
	for i, v := range [][]float64{v1, v2} {
		payload, err := w.owner.EncryptVector(v)
		if err != nil {
			t.Fatal(err)
		}
		id, err := w.server.Insert(payload)
		if err != nil {
			t.Fatal(err)
		}
		if id != n+i {
			t.Fatalf("insert id = %d, want %d", id, n+i)
		}
	}
	if err := w.server.Delete(n); err != nil {
		t.Fatal(err)
	}
	if !w.server.Deleted(5) || !w.server.Deleted(n) || w.server.Deleted(n+1) {
		t.Fatalf("pre-compaction Deleted() = %v/%v/%v for 5/%d/%d, want true/true/false",
			w.server.Deleted(5), w.server.Deleted(n), w.server.Deleted(n+1), n, n+1)
	}
	if got, want := w.server.Live(), n; got != want {
		t.Fatalf("pre-compaction Live = %d, want %d", got, want)
	}
	cs := w.server.CompactionStats()
	if cs.Delta != 2 || cs.Tombstones != 2 || cs.Frozen != n {
		t.Fatalf("pre-compaction stats = %+v, want delta 2, tombstones 2, frozen %d", cs, n)
	}

	if err := w.server.Compact(); err != nil {
		t.Fatal(err)
	}
	cs = w.server.CompactionStats()
	if cs.Generation != 1 || cs.Delta != 0 || cs.Tombstones != 0 || cs.Frozen != n+2 {
		t.Fatalf("post-compaction stats = %+v, want generation 1, clean, frozen %d", cs, n+2)
	}
	// The fold must not resurrect either tombstone — the delta-then-deleted
	// id in particular now only exists as a dead store slot.
	if !w.server.Deleted(5) || !w.server.Deleted(n) || w.server.Deleted(n+1) {
		t.Fatalf("post-compaction Deleted() = %v/%v/%v for 5/%d/%d, want true/true/false",
			w.server.Deleted(5), w.server.Deleted(n), w.server.Deleted(n+1), n, n+1)
	}
	if got, want := w.server.Live(), n; got != want {
		t.Fatalf("post-compaction Live = %d, want %d", got, want)
	}
	if got, want := w.server.Len(), n+2; got != want {
		t.Fatalf("post-compaction Len = %d, want %d", got, want)
	}
	for _, ids := range searchAll(t, w.server, []*QueryToken{mustToken(t, w, v1), mustToken(t, w, data[5])}, 10, n+2) {
		for _, id := range ids {
			if id == 5 || id == n {
				t.Fatalf("compaction resurrected deleted id %d: %v", id, ids)
			}
		}
	}
	// The surviving delta insert is still the best answer for its vector,
	// and the id space keeps growing past the fold.
	top, err := w.server.Search(mustToken(t, w, v2), 1, SearchOptions{KPrime: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0] != n+1 {
		t.Fatalf("surviving delta insert not found after compaction: got %v, want [%d]", top, n+1)
	}
	payload, err := w.owner.EncryptVector(v1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := w.server.Insert(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != n+2 {
		t.Fatalf("insert after compaction: id = %d, want %d (ids must never be reused)", id, n+2)
	}
}

// TestChurnCompactionConformance is the write-path conformance suite, run
// under the race detector in CI: on every backend, a sustained
// insert/delete stream churns the server while concurrent searchers hammer
// it and the background compactor fires mid-workload (CompactAt is tiny).
// Afterwards the tiered state must be indistinguishable from a clean one —
// at exhaustive k′, the dirty two-tier snapshot, the flushed snapshot, and
// a reference whose index is built from scratch under another seed must
// return bit-identical ids in identical order.
func TestChurnCompactionConformance(t *testing.T) {
	const (
		n, dim    = 300, 8
		k         = 10
		searchers = 2
		mutations = 120
	)
	base := clustered(111, n, dim, 5)
	fresh := clustered(112, mutations, dim, 5)

	for _, name := range index.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := newWorldWith(t, Params{Dim: dim, Beta: 0.3, Seed: 111, Index: name}, ServerOptions{CompactAt: 32}, base)

			toks := make([]*QueryToken, 6)
			for i := range toks {
				toks[i] = mustToken(t, w, base[i*11])
			}

			var done atomic.Bool
			errCh := make(chan error, searchers)
			var wg sync.WaitGroup
			for s := 0; s < searchers; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					var dst []int
					for rep := 0; !done.Load(); rep++ {
						var err error
						dst, _, err = w.server.SearchInto(dst[:0], toks[(s+rep)%len(toks)], k, SearchOptions{KPrime: 8 * k})
						if err != nil {
							errCh <- fmt.Errorf("searcher %d: %v", s, err)
							return
						}
						if len(dst) == 0 {
							errCh <- fmt.Errorf("searcher %d: empty result mid-churn", s)
							return
						}
					}
				}(s)
			}

			// Scripted churn: ~2/3 inserts, ~1/3 deletes of known-live ids,
			// with the background compactor folding every 32 pending entries.
			r := rng.NewSeeded(113)
			liveIDs := make([]int, n)
			for i := range liveIDs {
				liveIDs[i] = i
			}
			inserts := 0
			inserted := map[int][]float64{} // the SAP row of every insert, for checkColumns
			for m := 0; m < mutations; m++ {
				if m%3 != 2 {
					payload, err := w.owner.EncryptVector(fresh[inserts])
					if err != nil {
						t.Fatal(err)
					}
					id, err := w.server.Insert(payload)
					if err != nil {
						t.Fatalf("mutation %d (insert): %v", m, err)
					}
					inserted[id] = payload.SAP
					liveIDs = append(liveIDs, id)
					inserts++
				} else {
					pick := r.IntN(len(liveIDs))
					id := liveIDs[pick]
					if err := w.server.Delete(id); err != nil {
						t.Fatalf("mutation %d (delete %d): %v", m, id, err)
					}
					liveIDs[pick] = liveIDs[len(liveIDs)-1]
					liveIDs = liveIDs[:len(liveIDs)-1]
				}
			}
			done.Store(true)
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			// The background compactor must have fired mid-workload (80
			// inserts against a 32-entry trigger); give the async fold a
			// moment to be recorded.
			deadline := time.Now().Add(10 * time.Second)
			for w.server.CompactionStats().Generation == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("background compaction never fired: %+v", w.server.CompactionStats())
				}
				time.Sleep(time.Millisecond)
			}

			// Re-dirty the snapshot below the trigger so the conformance
			// check genuinely exercises the two-tier read path.
			for i := 0; i < 4; i++ {
				payload, err := w.owner.EncryptVector(fresh[i])
				if err != nil {
					t.Fatal(err)
				}
				id, err := w.server.Insert(payload)
				if err != nil {
					t.Fatal(err)
				}
				inserted[id] = payload.SAP
				liveIDs = append(liveIDs, id)
			}
			if err := w.server.Delete(liveIDs[0]); err != nil {
				t.Fatal(err)
			}
			liveIDs = liveIDs[1:]

			cs := w.server.CompactionStats()
			if cs.Delta == 0 || cs.Tombstones == 0 {
				t.Fatalf("snapshot unexpectedly clean before conformance check: %+v", cs)
			}
			total := w.server.Len()
			tiered := searchAll(t, w.server, toks, k, total)
			// The folds grafted the inserts that landed mid-rebuild: the SAP
			// column must still hold every insert's own row.
			sp := w.server.snap.Load()
			checkColumns(t, "tiered", sp.edb, sp.frozen, sp.clean(), inserted)

			// Flush: same results from the compacted single-tier state.
			if _, err := w.server.Flush(); err != nil {
				t.Fatal(err)
			}
			if cs := w.server.CompactionStats(); cs.Delta != 0 || cs.Tombstones != 0 {
				t.Fatalf("Flush left a dirty snapshot: %+v", cs)
			}
			if got, want := w.server.Live(), len(liveIDs); got != want {
				t.Fatalf("post-flush Live = %d, want %d", got, want)
			}
			sameResults(t, "flushed vs tiered", tiered, searchAll(t, w.server, toks, k, total))

			// Independently rebuilt reference: a copy of the flushed
			// database under a from-scratch index build with another seed
			// (IVF retrains its quantizer), preserving ids. Rebuild is not
			// on this side, so a fault in it cannot cancel out.
			flat := flushed(t, w.server)
			if got, want := flat.SAP.Len(), flat.Live(); got != want {
				t.Fatalf("flushed SAP column holds %d rows, want %d", got, want)
			}
			ix, err := index.BuildOver(flat.Backend, flat.SAP, flat.ids, index.Options{Seed: 112})
			if err != nil {
				t.Fatal(err)
			}
			rebuilt := *flat
			rebuilt.Index = ix
			if bytes.Equal(saveBytes(t, &rebuilt), saveBytes(t, flat)) {
				t.Fatal("reference index saves the flushed database's bytes: it is a copy, not a rebuild")
			}
			ref, err := NewServer(&rebuilt)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "rebuilt vs tiered", tiered, searchAll(t, ref, toks, k, total))
		})
	}
}

// TestSaveFlushesDelta pins the serialization contract of the two-tier
// write path: Flush — what Save callers go through — flushes the delta
// tier, so a churned server round-trips through PPANNSD4 with nothing
// pending and answers queries identically after the reload.
func TestSaveFlushesDelta(t *testing.T) {
	const n, dim, k = 250, 8, 8
	data := clustered(121, n, dim, 4)
	w := newWorldWith(t, Params{Dim: dim, Beta: 0.3, Seed: 121}, ServerOptions{CompactAt: -1}, data)

	for i := 0; i < 7; i++ {
		payload, err := w.owner.EncryptVector(data[i*3])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.server.Insert(payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{2, 9, n + 1} {
		if err := w.server.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	toks := []*QueryToken{mustToken(t, w, data[0]), mustToken(t, w, data[40])}
	want := searchAll(t, w.server, toks, k, n+7)

	var buf bytes.Buffer
	if err := flushed(t, w.server).Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEncryptedDatabase(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != n+7 || loaded.Live() != n+4 {
		t.Fatalf("loaded counts = %d/%d, want %d/%d", loaded.Len(), loaded.Live(), n+7, n+4)
	}
	srv, err := NewServer(loaded)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "reloaded vs flushed", want, searchAll(t, srv, toks, k, n+7))
}
