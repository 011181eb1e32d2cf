package core

import (
	"fmt"
	"math"
	"testing"

	"ppanns/internal/dataset"
	"ppanns/internal/index"
	"ppanns/internal/vec"
)

// TestColumnsSpanIDSpace pins the column layout the filter reads through
// one distance provider: the SAP, DCE and PQ columns and the ids each span
// every slot, the ids rise strictly through the id space, the SAP column
// agrees bit for bit with the filter index on every main-tier slot, and on
// a clean database the column is the index's own row arena, not a copy. It checks the served golden's four points of a
// WAL-backed server's life (fresh; delta tier plus tombstones in both
// tiers; after Compact; after OpenServer replays a second round), then
// both parts of Split(2) and Compacted() of the flushed database.
func TestColumnsSpanIDSpace(t *testing.T) {
	data := dataset.DeepLike(600, 60, 95)
	for _, backend := range []string{"hnsw", "ivf"} {
		t.Run(backend, func(t *testing.T) {
			owner, err := NewDataOwner(Params{Dim: data.Dim, Beta: 0.5, Seed: 95, Index: backend, PQ: true, PQM: 8})
			if err != nil {
				t.Fatal(err)
			}
			edb, err := owner.EncryptDatabase(data.Train)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			srv, err := NewServerWith(edb, ServerOptions{CompactAt: -1, WALDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			inserted := map[int][]float64{}
			extra := data.Queries
			mutate := func(first int) {
				var ids []int
				for _, v := range extra[:30] {
					p, err := owner.EncryptVector(v)
					if err != nil {
						t.Fatal(err)
					}
					id, err := srv.Insert(p)
					if err != nil {
						t.Fatal(err)
					}
					inserted[id] = p.SAP
					ids = append(ids, id)
				}
				extra = extra[30:]
				for id := first; id < len(data.Train); id += 97 {
					if err := srv.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < len(ids); i += 3 {
					if err := srv.Delete(ids[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			served := func(point string) {
				sp := srv.snap.Load()
				checkColumns(t, point, sp.edb, sp.frozen, sp.clean(), inserted)
			}

			served("fresh")
			mutate(5)
			served("delta")
			if err := srv.Compact(); err != nil {
				t.Fatal(err)
			}
			served("compacted")
			mutate(50)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if srv, _, err = OpenServer(dir, ServerOptions{CompactAt: -1}); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			served("reopened")

			// The relayouts: each result is clean, and its rows are the
			// source rows its ids name.
			flat := flushed(t, srv)
			checkColumns(t, "flushed", flat, flat.Len(), true, nil)
			parts, err := flat.Split(2, index.Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for s, part := range parts {
				point := fmt.Sprintf("split part %d", s)
				checkColumns(t, point, part, part.Len(), true, nil)
				if want := (flat.Len() - s + 1) / 2; part.Len() != want {
					t.Fatalf("%s: id space %d, want %d", point, part.Len(), want)
				}
				for slot, local := range part.ids {
					g, ok := flat.slot(2*int(local) + s)
					if !ok || !sameBits(part.SAP.At(slot), flat.SAP.At(g)) {
						t.Fatalf("%s: local id %d is not global id %d's row", point, local, 2*int(local)+s)
					}
				}
			}
			comp, err := flat.Compacted()
			if err != nil {
				t.Fatal(err)
			}
			checkColumns(t, "Compacted", comp, comp.Len(), true, nil)
			if comp.Len() != flat.Live() {
				t.Fatalf("Compacted: id space %d, %d records", comp.Len(), flat.Live())
			}
			for slot := range flat.Live() {
				if comp.ids[slot] != int32(slot) || !sameBits(comp.SAP.At(slot), flat.SAP.At(slot)) {
					t.Fatalf("Compacted: slot %d is not source slot %d's row under id %d", slot, slot, slot)
				}
			}
		})
	}
}

// checkColumns checks e's columns: SAP, DCE, (when present) PQ and the ids
// span every slot, and the ids rise strictly below the id space; every id
// in inserted has the SAP row its insert carried; every slot of an id
// below frozen has the index's vector as its SAP row, bit for bit; and on
// a clean database the column shares the index's row arena.
func checkColumns(t *testing.T, point string, e *EncryptedDatabase, frozen int, clean bool, inserted map[int][]float64) {
	t.Helper()
	n := e.Live()
	if e.SAP.Len() != n || e.DCE.Len() != n {
		t.Fatalf("%s: SAP column holds %d rows, DCE %d, ids %d", point, e.SAP.Len(), e.DCE.Len(), n)
	}
	if e.PQ != nil && e.PQ.Codes.Len() != n {
		t.Fatalf("%s: PQ column holds %d rows, ids %d", point, e.PQ.Codes.Len(), n)
	}
	for slot, id := range e.ids {
		if id < 0 || int(id) >= e.Len() || slot > 0 && id <= e.ids[slot-1] {
			t.Fatalf("%s: slot %d holds id %d after %v, in an id space of %d", point, slot, id, e.ids[max(slot-1, 0)], e.Len())
		}
		row := e.SAP.At(slot)
		if v, ok := inserted[int(id)]; ok && !sameBits(row, v) {
			t.Fatalf("%s: id %d: SAP row differs from the inserted one", point, id)
		}
		if int(id) >= frozen {
			continue
		}
		v, ok := e.Index.Vector(slot)
		if !ok || !sameBits(row, v) {
			t.Fatalf("%s: id %d: SAP row differs from the index's vector (index has it: %v)", point, id, ok)
		}
	}
	if clean && n > 0 {
		v, _ := e.Index.Vector(0)
		if &e.SAP.At(0)[0] != &v[0] {
			t.Fatalf("%s: the SAP column is a copy of the index's rows, not the index's arena", point)
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// midRebuildIndex wraps a SecureIndex whose Rebuild first runs during, once:
// a fold's rebuild then sees writes land after its base snapshot, which the
// fold must graft.
type midRebuildIndex struct {
	index.SecureIndex
	during func()
}

func (m *midRebuildIndex) Rebuild(rows *vec.Dataset, ids []int32) (index.SecureIndex, error) {
	if m.during != nil {
		m.during()
		m.during = nil
	}
	return m.SecureIndex.Rebuild(rows, ids)
}

// TestFoldGraftsMidRebuildInserts pins the fold's graft of the SAP column:
// inserts that land while the index is rebuilt keep their own SAP rows and
// PQ codes in the folded snapshot's delta tier, the grafted column still
// shares one row arena with the rebuilt index, and each insert is its own
// nearest neighbour under both filter modes. A grafted record's PQ code is
// never carried over: appendRow derives it from the SAP row under the
// folded codebook, whether or not the fold retrained it (it does once the
// id space has doubled since training).
func TestFoldGraftsMidRebuildInserts(t *testing.T) {
	const dim, mid = 8, 3
	data := clustered(57, 400, dim, 4)
	for _, backend := range index.Names() {
		for _, c := range []struct{ base, before int }{{300, 3}, {40, 40}} {
			t.Run(fmt.Sprintf("%s/%d+%d", backend, c.base, c.before), func(t *testing.T) {
				w := newWorldWith(t, Params{Dim: dim, Beta: 0.3, Seed: 57, Index: backend, PQ: true, PQM: 4}, ServerOptions{CompactAt: -1}, data[:c.base])
				inserted := map[int][]float64{}
				insert := func(v []float64) {
					p, err := w.owner.EncryptVector(v)
					if err != nil {
						t.Fatal(err)
					}
					id, err := w.server.Insert(p)
					if err != nil {
						t.Fatal(err)
					}
					inserted[id] = p.SAP
				}
				folded := c.base + c.before
				sp := w.server.snap.Load()
				book := sp.edb.PQ.Book
				sp.edb.Index = &midRebuildIndex{SecureIndex: sp.edb.Index, during: func() {
					for _, v := range data[folded : folded+mid] {
						insert(v)
					}
				}}
				for _, v := range data[c.base:folded] {
					insert(v)
				}
				if err := w.server.Delete(7); err != nil {
					t.Fatal(err)
				}
				if err := w.server.Compact(); err != nil {
					t.Fatal(err)
				}
				sp = w.server.snap.Load()
				if sp.frozen != folded || sp.delta() != mid {
					t.Fatalf("fold left frozen %d and a delta of %d, want %d and %d", sp.frozen, sp.delta(), folded, mid)
				}
				if retrained, want := sp.edb.PQ.Book != book, folded >= 2*c.base; retrained != want {
					t.Fatalf("codebook retrained: %v, want %v", retrained, want)
				}
				checkColumns(t, "folded", sp.edb, sp.frozen, sp.clean(), inserted)
				if v, ok := sp.edb.Index.Vector(0); !ok || &v[0] != &sp.edb.SAP.At(0)[0] {
					t.Fatal("the folded index and the SAP column hold different row arenas")
				}
				checkCodes(t, sp, 0, sp.edb.Len())
				for id := folded - 2; id < folded+mid; id++ {
					tok := mustToken(t, w, data[id])
					for _, mode := range []FilterDistMode{FilterExact, FilterPQ} {
						ids, err := w.server.Search(tok, 1, SearchOptions{FilterDist: mode, KPrime: 40})
						if err != nil || len(ids) != 1 || ids[0] != id {
							t.Fatalf("%v: record %d answers %v, %v", mode, id, ids, err)
						}
					}
				}
			})
		}
	}
}
