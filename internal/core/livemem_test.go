package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMemoryFollowsLiveSet: a server's memory and its checkpoint follow
// the records it holds, not the ids it ever issued. Two thousand live
// records go through twenty thousand insert+delete pairs, with a manual
// Compact every five thousand, on both backends (ivf with the PQ tier)
// and a WAL. After the last Compact the id space reads 22 000 and the
// live count 2 000; every column — SAP rows, DCE records, PQ codes and
// ids — has room for at most its live and delta rows plus one growth step
// (the fold reserves room for grafts, which doubles an arena the gather
// allocated exactly full); and the checkpoint is within 2 % of a fresh Save of the same
// 2 000 records. A database that kept a dead slot per deleted id held
// 22 000 rows and wrote a checkpoint eleven times that size.
func TestMemoryFollowsLiveSet(t *testing.T) {
	const dim, live, pairs, every = 8, 2000, 20000, 5000
	data := clustered(141, live+pairs, dim, 8)
	for _, params := range []Params{
		{Dim: dim, Beta: 0.5, Seed: 141, Index: "hnsw"},
		{Dim: dim, Beta: 0.5, Seed: 142, Index: "ivf", PQ: true, PQM: 4},
	} {
		t.Run(params.Index, func(t *testing.T) {
			dir := t.TempDir()
			w := newWALWorld(t, params, data[:live], ServerOptions{WALDir: dir, CompactAt: -1})
			defer w.server.Close()
			for i := range pairs {
				p, err := w.owner.EncryptVector(data[live+i])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.server.Insert(p); err != nil {
					t.Fatal(err)
				}
				if err := w.server.Delete(i); err != nil {
					t.Fatal(err)
				}
				if (i+1)%every == 0 {
					if err := w.server.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if n, l := w.server.Len(), w.server.Live(); n != live+pairs || l != live {
				t.Fatalf("Len %d, Live %d; want %d and %d", n, l, live+pairs, live)
			}
			sp := w.server.snap.Load()
			e := sp.edb
			rows := 2 * (live + sp.delta())
			caps := map[string]int{"SAP": e.SAP.Cap(), "DCE": e.DCE.Cap(), "ids": cap(e.ids)}
			if e.PQ != nil {
				caps["PQ codes"] = e.PQ.Codes.Cap()
			}
			for column, c := range caps {
				if c > rows {
					t.Errorf("the %s column holds room for %d rows, want at most %d", column, c, rows)
				}
			}

			ckpt, err := os.Stat(filepath.Join(dir, w.server.WALStats().Checkpoint))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := e.Compacted()
			if err != nil {
				t.Fatal(err)
			}
			want := len(saveBytes(t, fresh))
			if got := int(ckpt.Size()); math.Abs(float64(got-want)) > 0.02*float64(want) {
				t.Fatalf("the checkpoint is %d bytes, a fresh Save of the same %d records %d", got, live, want)
			}
		})
	}
}

// TestDeletedRecordForgotten is the deletion row of the leakage ledger: a
// deleted record's DCE ciphertext survives the Compact that folds its
// deletion nowhere — in no record of the published database's ciphertext
// arena, and in no file of the WAL directory. Before that Compact, the
// bytes are where the record arrived: in the base checkpoint for a record
// of the encrypted database, in the log segment that acknowledged its
// insert for a record inserted since.
func TestDeletedRecordForgotten(t *testing.T) {
	const n, dim = 300, 8
	data := clustered(143, n+1, dim, 4)
	for _, params := range []Params{
		{Dim: dim, Beta: 0.5, Seed: 143, Index: "hnsw", PQ: true, PQM: 4},
		{Dim: dim, Beta: 0.5, Seed: 144, Index: "ivf"},
	} {
		t.Run(params.Index, func(t *testing.T) {
			dir := t.TempDir()
			w := newWALWorld(t, params, data[:n], ServerOptions{WALDir: dir, CompactAt: -1})
			defer w.server.Close()
			p, err := w.owner.EncryptVector(data[n])
			if err != nil {
				t.Fatal(err)
			}
			inserted, err := w.server.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			const original = 17
			e := w.server.snap.Load().edb
			dead := map[int][]float64{
				original: slices.Clone(e.DCE.Record(slotOf(t, e, original))),
				inserted: p.DCE,
			}
			held := map[int]string{original: "checkpoint-", inserted: "wal-"}
			for id, rec := range dead {
				files := filesHolding(t, dir, floatBytes(rec))
				if len(files) != 1 || !strings.HasPrefix(files[0], held[id]) {
					t.Fatalf("before the fold, id %d's ciphertext is in %v, want one %s* file", id, files, held[id])
				}
				if err := w.server.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.server.Compact(); err != nil {
				t.Fatal(err)
			}

			e = w.server.snap.Load().edb
			for id, rec := range dead {
				if _, ok := e.slot(id); ok {
					t.Fatalf("id %d still holds a slot", id)
				}
				for slot := range e.DCE.Len() {
					if sameBits(e.DCE.Record(slot), rec) {
						t.Fatalf("id %d's ciphertext survives the fold at slot %d", id, slot)
					}
				}
				if files := filesHolding(t, dir, floatBytes(rec)); len(files) != 0 {
					t.Fatalf("id %d's ciphertext survives the fold in %v", id, files)
				}
			}
		})
	}
}

// floatBytes is the little-endian bytes of fs, as the database file and
// the log hold them.
func floatBytes(fs []float64) []byte {
	var b []byte
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// filesHolding names the files of dir whose bytes contain pattern.
func filesHolding(t *testing.T, dir string, pattern []byte) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, pattern) {
			out = append(out, ent.Name())
		}
	}
	return out
}
