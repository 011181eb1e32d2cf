package core

import (
	"bytes"
	"slices"
	"testing"
)

// TestOfflineCompactedRenumbers exercises the dbtool-compact primitive:
// tombstoned records are dropped entirely, survivors are renumbered densely
// with relative order preserved, the receiver stays untouched, and the
// compacted database answers queries with the renumbered ids. A database
// with a PQ tier keeps it: the survivors' code rows under the same codebook.
func TestOfflineCompactedRenumbers(t *testing.T) {
	const n, dim = 150, 8
	for name, params := range map[string]Params{
		"exact": {Dim: dim, Beta: 0.3, Seed: 131},
		"pq":    {Dim: dim, Beta: 0.3, Seed: 131, PQ: true, PQM: 4},
	} {
		t.Run(name, func(t *testing.T) { testOfflineCompacted(t, params, n) })
	}
}

func testOfflineCompacted(t *testing.T, params Params, n int) {
	const k = 5
	dim := params.Dim
	data := clustered(131, n, dim, 4)
	w := newWorld(t, params, data)
	dead := map[int]bool{3: true, 77: true, 149: true}
	for id := range dead {
		if err := w.server.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	edb := flushed(t, w.server)

	compacted, err := edb.Compacted()
	if err != nil {
		t.Fatal(err)
	}
	if edb.Len() != n || edb.Live() != n-len(dead) {
		t.Fatalf("Compacted mutated its receiver: %d/%d", edb.Len(), edb.Live())
	}
	if compacted.Len() != n-len(dead) || compacted.Live() != n-len(dead) {
		t.Fatalf("compacted counts = %d/%d, want %d with zero tombstones", compacted.Len(), compacted.Live(), n-len(dead))
	}

	// newID maps old ids to their dense renumbering (old order preserved).
	newID := make(map[int]int, n)
	next := 0
	for old := 0; old < n; old++ {
		if dead[old] {
			continue
		}
		newID[old] = next
		next++
	}
	// Record-level identity: every surviving ciphertext moved intact.
	for old, nw := range newID {
		want, got := edb.DCE.Record(old), compacted.DCE.Record(nw)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("record of old id %d (new %d) differs at float %d", old, nw, j)
			}
		}
	}

	// The PQ tier moved with them: row j is the code of survivor j under the
	// codebook the receiver was serving with.
	if (compacted.PQ != nil) != params.PQ {
		t.Fatalf("compacted PQ tier present = %v, want %v", compacted.PQ != nil, params.PQ)
	}
	if params.PQ {
		if compacted.PQ.Book != edb.PQ.Book || compacted.PQ.Codes.Len() != compacted.Len() {
			t.Fatalf("compacted PQ tier: codebook reused = %v, %d code rows for %d records",
				compacted.PQ.Book == edb.PQ.Book, compacted.PQ.Codes.Len(), compacted.Len())
		}
		code := make([]byte, compacted.PQ.Book.M())
		for j := 0; j < compacted.Len(); j++ {
			v, _ := compacted.Index.Vector(j)
			compacted.PQ.Book.EncodeInto(code, v)
			if !bytes.Equal(compacted.PQ.Codes.Row(j), code) {
				t.Fatalf("code row %d is %v, its vector encodes to %v", j, compacted.PQ.Codes.Row(j), code)
			}
		}
	}

	// Query-level identity at exhaustive k′: the compacted database must
	// return exactly the renumbered image of the original's results.
	srv, err := NewServer(compacted)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]float64{data[0], data[80], data[149]} {
		tok := mustToken(t, w, q)
		want, err := w.server.Search(tok, k, exhaustiveOpt(n))
		if err != nil {
			t.Fatal(err)
		}
		got, err := srv.Search(tok, k, exhaustiveOpt(n))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("result sizes differ: %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != newID[want[i]] {
				t.Fatalf("rank %d: compacted id %d, want renumbered %d (old %d)", i, got[i], newID[want[i]], want[i])
			}
		}
		if params.PQ {
			opt := exhaustiveOpt(n)
			opt.FilterDist = FilterPQ
			pqGot, err := srv.Search(tok, k, opt)
			if err != nil {
				t.Fatalf("FilterPQ search on the compacted database: %v", err)
			}
			// Exhaustive k′ refines every survivor, so the filter distance
			// cannot change the answer.
			if !slices.Equal(pqGot, got) {
				t.Fatalf("FilterPQ answered %v, the exact filter %v", pqGot, got)
			}
		}
	}

	// The compacted file round-trips (dense ids satisfy the load-time
	// index/store cross-check) and is genuinely smaller on disk.
	var orig, comp bytes.Buffer
	if err := edb.Save(&orig); err != nil {
		t.Fatal(err)
	}
	if err := compacted.Save(&comp); err != nil {
		t.Fatal(err)
	}
	if comp.Len() >= orig.Len() {
		t.Fatalf("compacted file (%d bytes) not smaller than original (%d bytes)", comp.Len(), orig.Len())
	}
	if _, err := LoadEncryptedDatabase(bytes.NewReader(comp.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Error contract: a database with no live records cannot be compacted.
	all := flushed(t, w.server)
	empty := &EncryptedDatabase{Dim: dim, Backend: all.Backend, Index: all.Index, DCE: all.DCE.Gather(slices.Repeat([]int{-1}, all.Len()))}
	if _, err := empty.Compacted(); err == nil {
		t.Fatal("expected error compacting a database with no live records")
	}
}
