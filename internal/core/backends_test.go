package core

import (
	"bytes"
	"testing"

	"ppanns/internal/dce"
	"ppanns/internal/index"
	"ppanns/internal/rng"
)

// Per-backend recall floors for the full filter-and-refine pipeline. The
// exact DCE refine recovers most of what the approximate filter loses, so
// these sit above the filter-only conformance floors.
var backendMinRecall = map[string]float64{
	"hnsw": 0.90,
	"ivf":  0.80,
}

// TestBackendsEndToEnd drives every filter-index backend through the
// public pipeline: encrypt, search with DCE refine, save/load round-trip,
// and updates.
func TestBackendsEndToEnd(t *testing.T) {
	const n, dim, k = 1500, 12, 10
	data := clustered(61, n, dim, 10)
	queries := makeQueries(62, data, 25, 0.3)

	for _, name := range index.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, Params{Dim: dim, Beta: 0.5, Seed: 61, Index: name}, data)
			if got := w.server.Backend(); got != name {
				t.Fatalf("Backend() = %q, want %q", got, name)
			}

			opt := SearchOptions{KPrime: 16 * k, EfSearch: 250}
			recall := w.measureRecall(t, queries, k, opt)
			if floor := backendMinRecall[name]; recall < floor {
				t.Fatalf("end-to-end recall = %.3f, want ≥ %.2f", recall, floor)
			}

			// Save/load round-trip must preserve search results exactly.
			var buf bytes.Buffer
			if err := flushed(t, w.server).Save(&buf); err != nil {
				t.Fatal(err)
			}
			edb2, err := LoadEncryptedDatabase(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if edb2.Backend != name {
				t.Fatalf("loaded backend = %q, want %q", edb2.Backend, name)
			}
			server2, err := NewServer(edb2)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				tok, err := w.user.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				a, err := w.server.Search(tok, k, opt)
				if err != nil {
					t.Fatal(err)
				}
				b, err := server2.Search(tok, k, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("query %d: result counts differ after round-trip: %d vs %d", qi, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("query %d rank %d differs after round-trip: %d vs %d", qi, i, a[i], b[i])
					}
				}
			}

			// Every backend takes inserts and deletes through the delta tier.
			r := rng.NewSeeded(63)
			novel := rng.GaussianVec(r, dim, 30)
			payload, err := w.owner.EncryptVector(novel)
			if err != nil {
				t.Fatal(err)
			}
			id, err := w.server.Insert(payload)
			if err != nil {
				t.Fatal(err)
			}
			if id != n {
				t.Fatalf("insert id = %d, want %d", id, n)
			}
			tok, err := w.user.Query(novel)
			if err != nil {
				t.Fatal(err)
			}
			got, err := w.server.Search(tok, 1, SearchOptions{KPrime: 8})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != id {
				t.Fatalf("inserted vector not found: got %v", got)
			}

			// A delete must hide the id.
			q := data[40]
			before, err := w.server.Search(mustToken(t, w, q), k, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.server.Delete(before[0]); err != nil {
				t.Fatal(err)
			}
			if !w.server.Deleted(before[0]) {
				t.Fatal("Deleted() bookkeeping wrong")
			}
			after, err := w.server.Search(mustToken(t, w, q), k, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range after {
				if id == before[0] {
					t.Fatal("deleted id still returned")
				}
			}
		})
	}
}

func mustToken(t *testing.T, w *testWorld, q []float64) *QueryToken {
	t.Helper()
	tok, err := w.user.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// TestFailedInsertLeavesDatabaseIntact is the regression test for the
// validate-before-mutate Insert fix: an insert rejected for a short DCE
// record must not grow any server-side array or desync the index.
func TestFailedInsertLeavesDatabaseIntact(t *testing.T) {
	const n, dim = 300, 8
	data := clustered(71, n, dim, 4)
	w := newWorld(t, Params{Dim: dim, Beta: 0.3, Seed: 71}, data)

	payload, err := w.owner.EncryptVector(data[0])
	if err != nil {
		t.Fatal(err)
	}
	payload.DCE = payload.DCE[:len(payload.DCE)-1]
	if _, err := w.server.Insert(payload); err == nil {
		t.Fatal("expected error for a short DCE record")
	}
	if w.server.Len() != n {
		t.Fatalf("failed insert grew database: Len = %d, want %d", w.server.Len(), n)
	}
	// A subsequent complete insert must land at position n with the index
	// still in lockstep.
	payload2, err := w.owner.EncryptVector(data[1])
	if err != nil {
		t.Fatal(err)
	}
	id, err := w.server.Insert(payload2)
	if err != nil {
		t.Fatal(err)
	}
	if id != n {
		t.Fatalf("insert after failed insert: id = %d, want %d", id, n)
	}
	got, err := w.server.Search(mustToken(t, w, data[1]), 2, SearchOptions{KPrime: 16})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range got {
		if g == 1 || g == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("database desynced after failed insert: got %v", got)
	}
}

// TestDimensionValidation ensures wrong-dimension tokens and payloads are
// rejected with errors instead of reaching the backends, which panic on
// mismatched vectors — a crash that must not be reachable from the wire.
func TestDimensionValidation(t *testing.T) {
	const dim = 8
	data := clustered(81, 200, dim, 2)
	w := newWorld(t, Params{Dim: dim, Beta: 0.3, Seed: 81}, data)
	tok := mustToken(t, w, data[0])

	badSAP := &QueryToken{SAP: make([]float64, dim/2), Trapdoor: tok.Trapdoor}
	if _, err := w.server.Search(badSAP, 3, SearchOptions{}); err == nil {
		t.Fatal("expected error for wrong-dimension SAP token")
	}
	// Off by a few and off by one, either way: the refine phase checks the
	// trapdoor's length once, before its first comparison.
	ctDim := len(tok.Trapdoor.Q)
	for _, n := range []int{3, ctDim - 1, ctDim + 1} {
		badTrap := &QueryToken{SAP: tok.SAP, Trapdoor: &dce.Trapdoor{Q: make([]float64, n)}}
		if _, err := w.server.Search(badTrap, 3, SearchOptions{}); err == nil {
			t.Fatalf("expected error for a trapdoor of %d floats (ciphertexts %d)", n, ctDim)
		}
	}

	payload, err := w.owner.EncryptVector(data[0])
	if err != nil {
		t.Fatal(err)
	}
	payload.SAP = payload.SAP[:dim/2]
	if _, err := w.server.Insert(payload); err == nil {
		t.Fatal("expected error for wrong-dimension insert payload")
	}
	payload2, err := w.owner.EncryptVector(data[0])
	if err != nil {
		t.Fatal(err)
	}
	payload2.DCE = payload2.DCE[:3]
	if _, err := w.server.Insert(payload2); err == nil {
		t.Fatal("expected error for a DCE record of the wrong length")
	}
	if w.server.Len() != 200 {
		t.Fatalf("failed inserts mutated database: Len = %d", w.server.Len())
	}
}

// TestParamsUnknownBackend ensures backend selection fails fast at
// parameter validation, not at encryption time — for a name that never
// served and for the ablation's graphs, which are not backends.
func TestParamsUnknownBackend(t *testing.T) {
	for _, name := range []string{"btree", "nsg", "lsh"} {
		if _, err := NewDataOwner(Params{Dim: 4, Index: name}); err == nil {
			t.Fatalf("expected error for backend %q", name)
		}
	}
}
