package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"ppanns/internal/index"
	"ppanns/internal/pq"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// TestTierMergeTieRule pins how the filter phase merges the tiers at equal
// distances: a delta record whose SAP row copies a main-tier record's row
// ranks directly after that record, and a k′ that cuts between the two
// keeps the main-tier one. Under FilterExact the two distances are equal
// because the rows are; under FilterPQ the insert is encoded with the
// published codebook, so it gets the same code. The main record is one
// whose code no other record shares, so nothing else ties with the pair.
func TestTierMergeTieRule(t *testing.T) {
	const n, dim = 300, 8
	data := clustered(91, n, dim, 4)
	for _, name := range index.Names() {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, Params{Dim: dim, Beta: 0.5, Seed: 91, Index: name, PQ: true, PQM: 4}, data)
			edb := w.server.snap.Load().edb
			main := -1
			for id := 0; id < n && main < 0; id++ {
				main = id
				for other := 0; other < n; other++ {
					if other != id && bytes.Equal(edb.PQ.Codes.Row(other), edb.PQ.Codes.Row(id)) {
						main = -1
						break
					}
				}
			}
			if main < 0 {
				t.Fatal("every record shares its PQ code with another")
			}
			sap, ok := edb.Index.Vector(main)
			if !ok {
				t.Fatalf("record %d has no SAP row", main)
			}
			delta, err := w.server.Insert(&InsertPayload{SAP: slices.Clone(sap), DCE: slices.Clone(edb.DCE.Record(main))})
			if err != nil {
				t.Fatal(err)
			}
			sp := w.server.snap.Load()
			if !bytes.Equal(sp.edb.PQ.Codes.Row(delta), sp.edb.PQ.Codes.Row(main)) {
				t.Fatalf("insert of record %d's SAP row got another PQ code", main)
			}
			tok, err := w.user.Query(data[main])
			if err != nil {
				t.Fatal(err)
			}
			var psc pq.Scanner
			psc.Prepare(sp.edb.PQ.Book, sp.edb.PQ.Codes, tok.SAP)
			var exact vec.Exact
			for _, mode := range []struct {
				name string
				dist vec.BlockScanner
			}{{"exact", exact.Bind(sp.edb.SAP, tok.SAP)}, {"pq", &psc}} {
				var ts tierScratch
				filter := func(kPrime int) []resultheap.Item {
					return sp.filterInto(&ts, nil, tok.SAP, kPrime, n+1, mode.dist)
				}
				items := filter(n + 1)
				at := slices.IndexFunc(items, func(it resultheap.Item) bool { return it.ID == main })
				if at < 0 || at+1 >= len(items) || items[at+1].ID != delta {
					t.Fatalf("%s: main record %d at rank %d, delta record %d not right after it: %v", mode.name, main, at, delta, items[:min(len(items), at+3)])
				}
				if math.Float64bits(items[at].Dist) != math.Float64bits(items[at+1].Dist) {
					t.Fatalf("%s: main and delta filter distances differ: %v vs %v", mode.name, items[at].Dist, items[at+1].Dist)
				}
				cut := filter(at + 1)
				if len(cut) != at+1 || cut[at].ID != main {
					t.Fatalf("%s: k′=%d kept %v, want record %d last", mode.name, at+1, cut, main)
				}
			}
		})
	}
}
