package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ppanns/internal/frame"
	"ppanns/internal/index"
	"ppanns/internal/rng"
	"ppanns/internal/wal"
)

// newWALWorld mirrors newWorld but attaches a write-ahead log to the
// server.
func newWALWorld(t *testing.T, params Params, data [][]float64, opts ServerOptions) *testWorld {
	t.Helper()
	owner, err := NewDataOwner(params)
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(data)
	if err != nil {
		t.Fatal(err)
	}
	user, err := NewUser(owner.UserKey())
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServerWith(edb, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{data: data, owner: owner, user: user, server: server}
}

// churnWAL applies a deterministic insert/delete script and returns the
// surviving live ids.
func churnWAL(t *testing.T, w *testWorld, dim, mutations int, seed uint64) []int {
	t.Helper()
	r := rng.NewSeeded(seed)
	liveIDs := make([]int, w.server.Len())
	for i := range liveIDs {
		liveIDs[i] = i
	}
	for m := 0; m < mutations; m++ {
		if m%3 != 2 {
			payload, err := w.owner.EncryptVector(rng.GaussianVec(r, dim, 8))
			if err != nil {
				t.Fatal(err)
			}
			id, err := w.server.Insert(payload)
			if err != nil {
				t.Fatalf("mutation %d (insert): %v", m, err)
			}
			liveIDs = append(liveIDs, id)
		} else {
			pick := r.IntN(len(liveIDs))
			if err := w.server.Delete(liveIDs[pick]); err != nil {
				t.Fatalf("mutation %d (delete %d): %v", m, liveIDs[pick], err)
			}
			liveIDs[pick] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
		}
	}
	return liveIDs
}

// sameStores asserts two servers hold bit-identical ciphertext content and
// PQ code rows for every live id, tolerating different physical layouts:
// one side may have folded a deletion away while the other still carries
// it as a pending tombstone over a slot, so liveness is compared through
// Deleted() (both tiers), and records by id, not by slot.
func sameStores(t *testing.T, label string, a, b *Server) {
	t.Helper()
	sa, sb := a.snap.Load().edb, b.snap.Load().edb
	if sa.Len() != sb.Len() {
		t.Fatalf("%s: id spaces differ: %d vs %d", label, sa.Len(), sb.Len())
	}
	for id := 0; id < sa.Len(); id++ {
		if a.Deleted(id) != b.Deleted(id) {
			t.Fatalf("%s: id %d deleted=%v vs deleted=%v", label, id, a.Deleted(id), b.Deleted(id))
		}
		if a.Deleted(id) {
			continue
		}
		slotA, slotB := slotOf(t, sa, id), slotOf(t, sb, id)
		ra, rb := sa.DCE.Record(slotA), sb.DCE.Record(slotB)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("%s: id %d ciphertext float %d differs", label, id, j)
			}
		}
		if (sa.PQ != nil) != (sb.PQ != nil) {
			t.Fatalf("%s: PQ tier presence differs", label)
		}
		if sa.PQ != nil {
			ca, cb := sa.PQ.Codes.Row(slotA), sb.PQ.Codes.Row(slotB)
			if len(ca) != len(cb) {
				t.Fatalf("%s: id %d PQ code widths differ: %d vs %d", label, id, len(ca), len(cb))
			}
			for j := range ca {
				if ca[j] != cb[j] {
					t.Fatalf("%s: id %d PQ code byte %d differs: %#x vs %#x", label, id, j, ca[j], cb[j])
				}
			}
		}
	}
}

// TestWALRecoveryConformance is the tentpole conformance test: on every
// backend, a WAL-attached server is churned (with mid-churn background
// compactions writing checkpoints), closed, and recovered with OpenServer.
// The recovered server must be bit-identical to the never-crashed one —
// same epoch and generation floor, same ciphertext and PQ-code content,
// and identical search results at exhaustive k′ under both FilterExact
// and FilterPQ.
func TestWALRecoveryConformance(t *testing.T) {
	const (
		n, dim    = 200, 8
		k         = 10
		mutations = 90
	)
	base := clustered(211, n, dim, 5)
	for _, name := range index.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			params := Params{Dim: dim, Beta: 0.3, Seed: 211, Index: name, PQ: true, PQM: 4}
			opts := ServerOptions{
				WALDir:  dir,
				WALSync: wal.SyncPolicy{Every: 1},
				// Small trigger so background folds — and their
				// checkpoints — fire mid-churn.
				CompactAt: 32,
			}
			w := newWALWorld(t, params, base, opts)
			churnWAL(t, w, dim, mutations, 212)

			toks := make([]*QueryToken, 5)
			for i := range toks {
				toks[i] = mustToken(t, w, base[i*13])
			}
			total := w.server.Len()
			wantEpoch := w.server.Epoch()
			wantGen := w.server.CompactionStats().Generation
			want := searchAll(t, w.server, toks, k, total)
			pqOpt := exhaustiveOpt(total)
			pqOpt.FilterDist = FilterPQ
			wantPQ := make([][]int, len(toks))
			for i, tok := range toks {
				ids, err := w.server.Search(tok, k, pqOpt)
				if err != nil {
					t.Fatal(err)
				}
				wantPQ[i] = ids
			}
			if err := w.server.Close(); err != nil {
				t.Fatal(err)
			}

			rec, stats, err := OpenServer(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if stats.Truncated != "" {
				t.Fatalf("clean close reported a torn tail: %+v", stats)
			}
			if rec.Epoch() != wantEpoch {
				t.Fatalf("recovered epoch = %d, want %d (acked-write loss)", rec.Epoch(), wantEpoch)
			}
			if got := rec.CompactionStats().Generation; got < stats.CheckpointGen {
				t.Fatalf("recovered generation %d below checkpoint generation %d", got, stats.CheckpointGen)
			}
			if stats.CheckpointEpoch+uint64(stats.Replayed) != wantEpoch {
				t.Fatalf("checkpoint epoch %d + replayed %d != epoch %d", stats.CheckpointEpoch, stats.Replayed, wantEpoch)
			}
			if rec.Len() != total || rec.Live() != w.server.Live() {
				t.Fatalf("recovered Len/Live = %d/%d, want %d/%d", rec.Len(), rec.Live(), total, w.server.Live())
			}
			sameStores(t, "recovered vs original", w.server, rec)
			sameResults(t, "recovered vs original", want, searchAll(t, rec, toks, k, total))
			gotPQ := make([][]int, len(toks))
			for i, tok := range toks {
				ids, err := rec.Search(tok, k, pqOpt)
				if err != nil {
					t.Fatal(err)
				}
				gotPQ[i] = ids
			}
			sameResults(t, "recovered vs original (FilterPQ)", wantPQ, gotPQ)
			if wantGen > 0 && stats.CheckpointGen == 0 {
				t.Fatalf("background folds ran (gen %d) but recovery anchored on gen 0", wantGen)
			}

			// The recovered server keeps logging: a further mutation and a
			// second recovery must agree too.
			payload, err := w.owner.EncryptVector(base[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rec.Insert(payload); err != nil {
				t.Fatal(err)
			}
			want2 := searchAll(t, rec, toks, k, total+1)
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			rec2, _, err := OpenServer(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rec2.Close()
			if rec2.Epoch() != wantEpoch+1 {
				t.Fatalf("second recovery epoch = %d, want %d", rec2.Epoch(), wantEpoch+1)
			}
			sameResults(t, "second recovery", want2, searchAll(t, rec2, toks, k, total+1))
		})
	}
}

// TestWALRecoveryAfterRetrainingFold: inserts that land while a fold
// retrains the codebook are logged before the retrain, and the live server
// encodes them under the new codebook. Recovery replays them over the
// fold's checkpoint, so it must encode them under that codebook too: the
// recovered code arena equals the live one, byte for byte, and every row
// is the codebook's encoding of its SAP row.
func TestWALRecoveryAfterRetrainingFold(t *testing.T) {
	const dim, base, before, mid = 8, 40, 40, 3
	data := clustered(58, base+before+mid, dim, 4)
	for _, backend := range index.Names() {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			opts := ServerOptions{WALDir: dir, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
			w := newWALWorld(t, Params{Dim: dim, Beta: 0.3, Seed: 58, Index: backend, PQ: true, PQM: 4}, data[:base], opts)
			insert := func(v []float64) {
				p, err := w.owner.EncryptVector(v)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.server.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			sp := w.server.snap.Load()
			book := sp.edb.PQ.Book
			sp.edb.Index = &midRebuildIndex{SecureIndex: sp.edb.Index, during: func() {
				for _, v := range data[base+before:] {
					insert(v)
				}
			}}
			for _, v := range data[base : base+before] {
				insert(v)
			}
			if err := w.server.Compact(); err != nil {
				t.Fatal(err)
			}
			live := w.server.snap.Load()
			if live.edb.PQ.Book == book || live.delta() != mid {
				t.Fatalf("the fold must retrain and leave the %d mid-rebuild inserts in the delta (retrained %v, delta %d)", mid, live.edb.PQ.Book != book, live.delta())
			}
			checkCodes(t, live, 0, live.edb.Len())
			if err := w.server.Close(); err != nil {
				t.Fatal(err)
			}

			rec, _, err := OpenServer(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			got := rec.snap.Load()
			if !bytes.Equal(got.edb.PQ.Codes.Raw(), live.edb.PQ.Codes.Raw()) {
				for slot := range min(live.edb.Live(), got.edb.Live()) {
					if !bytes.Equal(got.edb.PQ.Codes.Row(slot), live.edb.PQ.Codes.Row(slot)) {
						t.Errorf("recovered code row %d is %v, the live server's %v", slot, got.edb.PQ.Codes.Row(slot), live.edb.PQ.Codes.Row(slot))
					}
				}
				t.FailNow()
			}
			checkCodes(t, got, 0, got.edb.Len())
		})
	}
}

// TestWALStatsReporting pins the WALStats surface: nil without a WAL,
// populated with the policy and checkpoint identity with one.
func TestWALStatsReporting(t *testing.T) {
	data := clustered(221, 80, 6, 3)
	plain := newWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 221}, data)
	if plain.server.WALStats() != nil {
		t.Fatal("WALStats non-nil on a server without a WAL")
	}
	dir := t.TempDir()
	opts := ServerOptions{WALDir: dir, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
	w := newWALWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 221}, data, opts)
	defer w.server.Close()
	churnWAL(t, w, 6, 9, 222)
	st := w.server.WALStats()
	if st == nil {
		t.Fatal("WALStats nil on a WAL-attached server")
	}
	if st.Dir != dir || st.Policy != "every=1" {
		t.Fatalf("stats dir/policy = %q/%q, want %q/every=1", st.Dir, st.Policy, dir)
	}
	// 9 mutations plus the initial checkpoint's barrier record.
	if st.Appended != 10 || st.Synced != 10 {
		t.Fatalf("stats appended/synced = %d/%d, want 10/10", st.Appended, st.Synced)
	}
	if st.Checkpoint == "" || st.CheckpointEpoch != 0 || st.Segments == 0 || st.Bytes == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

// TestOpenServerEmptyDir: recovery from a directory that never held a
// server is a distinct, actionable error.
func TestOpenServerEmptyDir(t *testing.T) {
	_, _, err := OpenServer(t.TempDir(), ServerOptions{})
	if err == nil {
		t.Fatal("expected error for empty WAL dir")
	}
	if !strings.Contains(err.Error(), "NewServerWith") {
		t.Fatalf("error does not point at NewServerWith: %v", err)
	}
}

// TestOpenServerRefusesOldGenerationLog: a WAL directory whose segments
// were written by log generation 1 or 2 is refused by wal.Inspect and
// OpenServer with the way forward, and every segment and checkpoint file
// is left byte for byte as it was. The generation-2 directory
// (testdata/wal-g2: hnsw with a PQ tier, d=2, 10 records, then 2 inserts
// and a delete) was written by commit e77d75f, the last build of that
// generation; the test opens a copy of it.
func TestOpenServerRefusesOldGenerationLog(t *testing.T) {
	files := func(dir string) map[string]string { return walDirFiles(t, dir) }
	refused := func(t *testing.T, dir string, gen int, opts ServerOptions) {
		before := files(dir)
		want := fmt.Sprintf("written by log generation %d, which this build does not read: checkpoint with the previous build", gen)
		if _, err := wal.Inspect(dir); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("wal.Inspect over a generation-%d log: %v", gen, err)
		}
		if _, _, err := OpenServer(dir, opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("OpenServer over a generation-%d log: %v", gen, err)
		}
		if after := files(dir); !maps.Equal(after, before) {
			t.Fatal("a refused log directory changed")
		}
	}

	t.Run("generation 1", func(t *testing.T) {
		dir := t.TempDir()
		opts := ServerOptions{WALDir: dir, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
		w := newWALWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 233}, clustered(233, 60, 6, 3), opts)
		churnWAL(t, w, 6, 4, 234)
		if err := w.server.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments: %v %v", segs, err)
		}
		for _, seg := range segs {
			var seq uint64
			if _, err := fmt.Sscanf(filepath.Base(seg), "wal-%016x.seg", &seq); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, binary.LittleEndian.AppendUint64([]byte("PPWALSG1"), seq), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		refused(t, dir, 1, opts)
	})

	t.Run("generation 2", func(t *testing.T) {
		src := filepath.Join("testdata", "wal-g2")
		written := files(src)
		if len(written) != 2 {
			t.Fatalf("testdata/wal-g2 holds %d files, want a segment and a checkpoint", len(written))
		}
		dir := t.TempDir()
		for name, b := range written {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		refused(t, dir, 2, ServerOptions{CompactAt: -1})
	})
}

// TestOpenServerCheckpointNoTail: a checkpoint with no mutation records
// after it recovers with zero replay.
func TestOpenServerCheckpointNoTail(t *testing.T) {
	const n, dim, k = 120, 6, 8
	data := clustered(231, n, dim, 3)
	dir := t.TempDir()
	opts := ServerOptions{WALDir: dir, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
	w := newWALWorld(t, Params{Dim: dim, Beta: 0.3, Seed: 231}, data, opts)
	churnWAL(t, w, dim, 6, 232)
	// Flush folds the delta and writes a checkpoint; nothing follows it.
	if _, err := w.server.Flush(); err != nil {
		t.Fatal(err)
	}
	toks := []*QueryToken{mustToken(t, w, data[0]), mustToken(t, w, data[50])}
	want := searchAll(t, w.server, toks, k, w.server.Len())
	wantEpoch := w.server.Epoch()
	if err := w.server.Close(); err != nil {
		t.Fatal(err)
	}

	rec, stats, err := OpenServer(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if stats.Replayed != 0 {
		t.Fatalf("replayed %d records over a post-flush checkpoint, want 0", stats.Replayed)
	}
	if stats.CheckpointEpoch != wantEpoch || rec.Epoch() != wantEpoch {
		t.Fatalf("epochs: checkpoint %d, recovered %d, want %d", stats.CheckpointEpoch, rec.Epoch(), wantEpoch)
	}
	sameResults(t, "checkpoint-only recovery", want, searchAll(t, rec, toks, k, rec.Len()))
}

// TestOpenServerTailWithoutCheckpoint: log records with no checkpoint to
// anchor them must refuse recovery loudly — serving a partial state would
// silently drop acknowledged writes.
func TestOpenServerTailWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	lg, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := lg.Append(wal.KindDelete, 1, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenServer(dir, ServerOptions{})
	if err == nil {
		t.Fatal("expected error for log tail without checkpoint")
	}
	if !strings.Contains(err.Error(), "no usable checkpoint") {
		t.Fatalf("unexpected error: %v", err)
	}

	// Same refusal when the checkpoint files have been lost from an
	// otherwise healthy directory.
	dir2 := t.TempDir()
	data := clustered(241, 60, 6, 3)
	opts := ServerOptions{WALDir: dir2, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
	w := newWALWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 241}, data, opts)
	churnWAL(t, w, 6, 6, 242)
	if err := w.server.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir2, "checkpoint-*"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint files found: %v %v", ckpts, err)
	}
	for _, c := range ckpts {
		if err := os.Remove(c); err != nil {
			t.Fatal(err)
		}
	}
	_, stats, err := OpenServer(dir2, opts)
	if err == nil {
		t.Fatal("expected error after deleting checkpoint files")
	}
	if want := "newest checkpoint " + filepath.Base(ckpts[len(ckpts)-1]) + " does not load"; !strings.Contains(err.Error(), want) || stats.Checkpoint != "" {
		t.Fatalf("OpenServer = %v (stats %+v), want a refusal saying %q", err, stats, want)
	}
}

// TestOpenServerRefusesBadLoggedMutation: replay holds every logged
// mutation to the live write's own check, so a log carrying an insert of
// the wrong dimension, at a skipped id or with no ciphertext, or a delete
// of an id an earlier record deleted or that was never assigned, is
// refused by OpenServer — and the live write refuses the same mutation
// with the same reason: the replay error without its "wal replay at
// epoch N" prefix.
func TestOpenServerRefusesBadLoggedMutation(t *testing.T) {
	const n, dim = 60, 6
	for _, tc := range []struct {
		name string
		// forge builds the mutation from a valid insert payload.
		forge func(p *InsertPayload) mutation
		want  string
	}{
		{"wrong-dimension insert", func(p *InsertPayload) mutation {
			p.SAP = append(p.SAP, 0)
			return mutation{kind: wal.KindInsert, id: n, p: p}
		}, "insert payload has dim 7, want 6"},
		{"delete of a dead id", func(*InsertPayload) mutation {
			return mutation{kind: wal.KindDelete, id: 5}
		}, "id 5 already deleted"},
		{"insert at a skipped id", func(p *InsertPayload) mutation {
			return mutation{kind: wal.KindInsert, id: n + 1, p: p}
		}, "insert at id 61, next id is 60"},
		{"insert with no ciphertext", func(p *InsertPayload) mutation {
			p.DCE = nil
			return mutation{kind: wal.KindInsert, id: n, p: p}
		}, "incomplete insert payload"},
		{"delete of an id never assigned", func(*InsertPayload) mutation {
			return mutation{kind: wal.KindDelete, id: 1000}
		}, "delete of unknown id 1000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := ServerOptions{WALDir: dir, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
			w := newWALWorld(t, Params{Dim: dim, Beta: 0.3, Seed: 245}, clustered(245, n, dim, 3), opts)
			if err := w.server.Delete(5); err != nil {
				t.Fatal(err)
			}
			if err := w.server.Close(); err != nil {
				t.Fatal(err)
			}
			p, err := w.owner.EncryptVector(w.data[0])
			if err != nil {
				t.Fatal(err)
			}
			m := tc.forge(p)
			lg, _, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lsn, err := lg.Append(m.kind, 2, appendMutation(nil, m))
			if err != nil {
				t.Fatal(err)
			}
			if err := lg.Commit(lsn); err != nil {
				t.Fatal(err)
			}
			if err := lg.Close(); err != nil {
				t.Fatal(err)
			}
			_, _, err = OpenServer(dir, opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenServer = %v, want a refusal saying %q", err, tc.want)
			}

			// The live write, on the server that wrote the log: the
			// public call where it can name the mutation, the write body
			// beneath both where it cannot (an insert names no id).
			var live error
			switch {
			case m.kind == wal.KindDelete:
				live = w.server.Delete(m.id)
			case m.id == w.server.Len():
				_, live = w.server.Insert(m.p)
			default:
				_, live = w.server.write(m)
			}
			if want := strings.Replace(err.Error(), "wal replay at epoch 2: ", "", 1); live == nil || live.Error() != want {
				t.Fatalf("live write = %v, want the replay's refusal %q", live, want)
			}
		})
	}
}

// TestOpenServerRefusesRetiredBackend: a WAL directory whose checkpoints
// carry a retired serving tag (nsg, lsh) is refused with the database
// loader's re-encrypt message, not only with the generic missing-anchor
// one.
func TestOpenServerRefusesRetiredBackend(t *testing.T) {
	dir := t.TempDir()
	opts := ServerOptions{WALDir: dir, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
	w := newWALWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 243}, clustered(243, 60, 6, 3), opts)
	churnWAL(t, w, 6, 4, 244)
	if err := w.server.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint files found: %v %v", ckpts, err)
	}
	// The backend tag follows the magic as one length byte and the name.
	for _, c := range ckpts {
		b, err := os.ReadFile(c)
		if err != nil {
			t.Fatal(err)
		}
		tagged := append([]byte(edbMagic), 3, 'n', 's', 'g')
		tagged = append(tagged, b[len(edbMagic)+1+len("hnsw"):]...)
		if err := os.WriteFile(c, tagged, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := OpenServer(dir, opts); err == nil || !strings.Contains(err.Error(), `"nsg" no longer serves: re-encrypt with hnsw or ivf`) {
		t.Fatalf("OpenServer over nsg-tagged checkpoints: %v", err)
	}
}

// TestOpenServerDoubleReplayIdempotence: recovering twice in a row — with
// no writes in between — must land on the same epoch and results, proving
// replay applies each record exactly once per recovery. It runs under every
// sync policy: whatever the policy defers, Close flushes, so a clean
// shutdown loses no acknowledged write.
func TestOpenServerDoubleReplayIdempotence(t *testing.T) {
	const n, dim, k, writes = 150, 8, 8, 30
	data := clustered(251, n, dim, 4)
	for name, policy := range map[string]wal.SyncPolicy{
		"every=1":      {Every: 1},
		"every=8":      {Every: 8},
		"interval=5ms": {Interval: 5 * time.Millisecond},
		"os-buffered":  {},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := ServerOptions{WALDir: dir, WALSync: policy, CompactAt: -1}
			w := newWALWorld(t, Params{Dim: dim, Beta: 0.3, Seed: 251}, data, opts)
			churnWAL(t, w, dim, writes, 252)
			toks := []*QueryToken{mustToken(t, w, data[3]), mustToken(t, w, data[77])}
			total := w.server.Len()
			want := searchAll(t, w.server, toks, k, total)
			if err := w.server.Close(); err != nil {
				t.Fatal(err)
			}

			rec1, stats1, err := OpenServer(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rec1.Epoch() != writes {
				t.Fatalf("recovered epoch %d, want every one of the %d acknowledged writes", rec1.Epoch(), writes)
			}
			sameStores(t, "first replay", w.server, rec1)
			sameResults(t, "first replay", want, searchAll(t, rec1, toks, k, total))
			if err := rec1.Close(); err != nil {
				t.Fatal(err)
			}
			rec2, stats2, err := OpenServer(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rec2.Close()
			if stats1.Replayed != writes || stats2.Replayed != stats1.Replayed {
				t.Fatalf("replay counts = %d then %d, want %d both times", stats1.Replayed, stats2.Replayed, writes)
			}
			if rec2.Epoch() != rec1.Epoch() {
				t.Fatalf("epochs diverged across replays: %d vs %d", rec1.Epoch(), rec2.Epoch())
			}
			sameResults(t, "second replay", want, searchAll(t, rec2, toks, k, total))
		})
	}
}

// TestOpenServerCorruptTailRecord: a CRC-corrupt record is truncated, the
// repair is reported, and the server serves the surviving prefix. A
// subsequent recovery finds a clean log.
func TestOpenServerCorruptTailRecord(t *testing.T) {
	const n, dim, inserts = 120, 6, 8
	data := clustered(261, n, dim, 3)
	dir := t.TempDir()
	opts := ServerOptions{WALDir: dir, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
	w := newWALWorld(t, Params{Dim: dim, Beta: 0.3, Seed: 261}, data, opts)
	r := rng.NewSeeded(262)
	for i := 0; i < inserts; i++ {
		payload, err := w.owner.EncryptVector(rng.GaussianVec(r, dim, 8))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.server.Insert(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.server.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the last record's CRC trailer.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	seg := segs[len(segs)-1]
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, stats, err := OpenServer(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated == "" || stats.TruncatedBytes == 0 {
		t.Fatalf("corruption not reported: %+v", stats)
	}
	if got, want := rec.Epoch(), uint64(inserts-1); got != want {
		t.Fatalf("recovered epoch = %d, want %d (exactly the corrupt record dropped)", got, want)
	}
	if rec.Len() != n+inserts-1 {
		t.Fatalf("recovered Len = %d, want %d", rec.Len(), n+inserts-1)
	}
	// The survivor still serves.
	tok := mustToken(t, &testWorld{user: w.user}, data[0])
	if _, err := rec.Search(tok, 5, exhaustiveOpt(rec.Len())); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, stats2, err := OpenServer(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if stats2.Truncated != "" {
		t.Fatalf("repair did not stick: %+v", stats2)
	}
	if rec2.Epoch() != uint64(inserts-1) {
		t.Fatalf("second recovery epoch = %d, want %d", rec2.Epoch(), inserts-1)
	}
}

// TestFlushSurfacesCheckpointSyncError is the regression test for
// satellite 2: a checkpoint whose snapshot fsync fails must propagate the
// error out of Flush/Compact and into CompactionStats, and the poisoned
// log must fail subsequent writes fast rather than acknowledge them.
func TestFlushSurfacesCheckpointSyncError(t *testing.T) {
	const n, dim, inserts = 100, 6, 5
	data := clustered(271, n, dim, 3)
	scenario := func(t *testing.T, failSyncAt int) (*testWorld, *wal.Injector, error) {
		t.Helper()
		inj := &wal.Injector{KillAfterBytes: -1, FailSyncAt: failSyncAt}
		opts := ServerOptions{
			WALDir:    t.TempDir(),
			WALSync:   wal.SyncPolicy{Every: 1},
			CompactAt: -1,
			walFS:     wal.NewFaultyFS(inj),
		}
		w := newWALWorld(t, Params{Dim: dim, Beta: 0.3, Seed: 271}, data, opts)
		r := rng.NewSeeded(272)
		for i := 0; i < inserts; i++ {
			payload, err := w.owner.EncryptVector(rng.GaussianVec(r, dim, 8))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.server.Insert(payload); err != nil {
				t.Fatal(err)
			}
		}
		_, err := w.server.Flush()
		return w, inj, err
	}

	// Fault-free run measures where Flush's checkpoint syncs land.
	clean, inj, err := scenario(t, 0)
	if err != nil {
		t.Fatal(err)
	}
	syncsThroughFlush := inj.Syncs()
	preFlushSyncs := 2 + inserts // initial checkpoint (snapshot + barrier) and one per insert
	if syncsThroughFlush <= preFlushSyncs {
		t.Fatalf("flush performed no syncs? %d total, %d before", syncsThroughFlush, preFlushSyncs)
	}
	clean.server.Close()

	// Same scenario with the first Flush-era sync failing.
	w, _, err := scenario(t, preFlushSyncs+1)
	if err == nil {
		t.Fatal("Flush swallowed the checkpoint sync error")
	}
	if !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("Flush error does not wrap the injected fault: %v", err)
	}
	if cs := w.server.CompactionStats(); cs.LastError == "" {
		t.Fatalf("checkpoint failure not recorded in CompactionStats: %+v", cs)
	}
	// The injector is dead: further writes must fail, not silently ack.
	payload, err := w.owner.EncryptVector(data[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.server.Insert(payload); err == nil {
		t.Fatal("insert acknowledged on a failed log")
	}
}

// TestWALRejectsExistingLog pins the construction-time refusal:
// NewServerWith must not silently clobber a directory that already holds a
// recoverable log.
func TestWALRejectsExistingLog(t *testing.T) {
	data := clustered(281, 60, 6, 3)
	dir := t.TempDir()
	opts := ServerOptions{WALDir: dir, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
	w := newWALWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 282}, data, opts)
	if err := w.server.Close(); err != nil {
		t.Fatal(err)
	}
	owner2, err := NewDataOwner(Params{Dim: 6, Beta: 0.3, Seed: 283})
	if err != nil {
		t.Fatal(err)
	}
	edb2, err := owner2.EncryptDatabase(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServerWith(edb2, opts); err == nil {
		t.Fatal("expected error for NewServerWith over an existing log")
	} else if !strings.Contains(err.Error(), "OpenServer") {
		t.Fatalf("error does not point at OpenServer: %v", err)
	}
}

// TestFoldDropsDeadSlots: on every backend, a deleted record's SAP
// ciphertext leaves the filter tier at the fold. After a main-tier record
// and an inserted one are deleted and a Compact runs with a WAL attached,
// the index reports neither vector, and neither the database's Save bytes
// nor the checkpoint file hold either vector's bit pattern. On HNSW no list
// of the folded graph names a dead id either.
func TestFoldDropsDeadSlots(t *testing.T) {
	const n, dim, mainID = 150, 8, 20
	data := clustered(241, n, dim, 4)
	for _, name := range index.Names() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := ServerOptions{WALDir: dir, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
			w := newWALWorld(t, Params{Dim: dim, Beta: 0.3, Seed: 241, Index: name}, data, opts)
			defer w.server.Close()
			payload, err := w.owner.EncryptVector(rng.GaussianVec(rng.NewSeeded(242), dim, 6))
			if err != nil {
				t.Fatal(err)
			}
			id, err := w.server.Insert(payload)
			if err != nil {
				t.Fatal(err)
			}
			before := w.server.snap.Load().edb
			mainSAP, ok := before.Index.Vector(slotOf(t, before, mainID))
			if !ok {
				t.Fatal("main-tier vector missing before the fold")
			}
			dead := map[int][]float64{mainID: slices.Clone(mainSAP), id: payload.SAP}
			for d := range dead {
				if err := w.server.Delete(d); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.server.Compact(); err != nil {
				t.Fatal(err)
			}

			edb := w.server.snap.Load().edb
			var saved bytes.Buffer
			if err := edb.Save(&saved); err != nil {
				t.Fatal(err)
			}
			ckpt, err := os.ReadFile(filepath.Join(dir, w.server.WALStats().Checkpoint))
			if err != nil {
				t.Fatal(err)
			}
			for d, sap := range dead {
				if _, ok := edb.slot(d); ok {
					t.Fatalf("the folded database still holds a slot for dead id %d", d)
				}
				var pattern []byte
				for _, f := range sap {
					pattern = binary.LittleEndian.AppendUint64(pattern, math.Float64bits(f))
				}
				if bytes.Contains(saved.Bytes(), pattern) || bytes.Contains(ckpt, pattern) {
					t.Fatalf("the SAP ciphertext of dead id %d survives the fold on disk", d)
				}
			}
			// Both index loaders refuse a list or a link that names a dead
			// slot, so a fold that left one behind would not load.
			if _, err := LoadEncryptedDatabase(bytes.NewReader(saved.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFoldAfterDeletingEverything: with every record deleted — the database
// grown past its PQ training set first, so the fold's retrain rule fires —
// a fold still publishes, on every backend: an empty index, a codebook kept
// (there is nothing to train on), searches that answer nothing, and a
// checkpoint that recovers.
func TestFoldAfterDeletingEverything(t *testing.T) {
	const n, dim = 40, 6
	data := clustered(251, 2*n, dim, 3)
	for _, name := range index.Names() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := ServerOptions{WALDir: dir, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
			w := newWALWorld(t, Params{Dim: dim, Beta: 0.3, Seed: 251, Index: name, PQ: true, PQM: 3}, data[:n], opts)
			for _, v := range data[n:] {
				payload, err := w.owner.EncryptVector(v)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.server.Insert(payload); err != nil {
					t.Fatal(err)
				}
			}
			book := w.server.snap.Load().edb.PQ.Book
			for id := 0; id < 2*n; id++ {
				if err := w.server.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.server.Compact(); err != nil {
				t.Fatalf("fold after deleting everything: %v", err)
			}
			edb := w.server.snap.Load().edb
			if edb.Index.Len() != 0 || w.server.Live() != 0 || edb.PQ.Book != book {
				t.Fatalf("index Len %d, Live %d, codebook replaced %v", edb.Index.Len(), w.server.Live(), edb.PQ.Book != book)
			}
			for _, opt := range []SearchOptions{{}, {FilterDist: FilterPQ}} {
				if ids, err := w.server.Search(mustToken(t, w, data[0]), 5, opt); err != nil || len(ids) != 0 {
					t.Fatalf("search of an empty database: %v, %v", ids, err)
				}
			}
			if err := w.server.Close(); err != nil {
				t.Fatal(err)
			}
			rec, _, err := OpenServer(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if rec.Len() != 2*n || rec.Live() != 0 {
				t.Fatalf("recovered Len/Live %d/%d, want %d/0", rec.Len(), rec.Live(), 2*n)
			}
		})
	}
}

// walDirFiles maps every file in dir to its bytes.
func walDirFiles(t testing.TB, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		m[e.Name()] = string(b)
	}
	return m
}

// TestOpenServerRefusesNewerGenerationLog: a WAL directory whose segment
// header is stamped with a later log generation than this build's is a
// newer build's. wal.Inspect and OpenServer refuse it with that advice, not
// a downgrade's, and leave every file as it was.
func TestOpenServerRefusesNewerGenerationLog(t *testing.T) {
	dir := t.TempDir()
	opts := ServerOptions{WALDir: dir, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
	w := newWALWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 235}, clustered(235, 60, 6, 3), opts)
	churnWAL(t, w, 6, 4, 236)
	if err := w.server.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	// The header envelope is the segment's first: restamp it 4.
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(seg), "wal-%016x.seg", &seq); err != nil {
			t.Fatal(err)
		}
		head, err := frame.AppendEnvelope(nil, 4, 0, seq, func(b []byte) []byte { return append(b, "PPWALSG4"...) })
		if err != nil || len(head) > len(b) {
			t.Fatalf("header of %d bytes over a %d-byte segment: %v", len(head), len(b), err)
		}
		if err := os.WriteFile(seg, append(head, b[len(head):]...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := walDirFiles(t, dir)
	const want = "written by a newer build, at log generation 4 where this build reads 3: open the directory with that build"
	if _, err := wal.Inspect(dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("wal.Inspect = %v, want a refusal saying %q", err, want)
	}
	if _, _, err := OpenServer(dir, opts); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenServer = %v, want a refusal saying %q", err, want)
	}
	if !maps.Equal(walDirFiles(t, dir), before) {
		t.Fatal("a refused log directory changed")
	}
}

// TestOpenServerUsesNewestCheckpointOnly: recovery anchors on the newest
// barrier's checkpoint alone. After two folds, the first fold's checkpoint
// file is put back beside the second and one byte of the second is
// flipped: OpenServer refuses, naming the second file and the loader's
// error, instead of falling back to the older file, and changes no file.
func TestOpenServerUsesNewestCheckpointOnly(t *testing.T) {
	dir := t.TempDir()
	opts := ServerOptions{WALDir: dir, WALSync: wal.SyncPolicy{Every: 1}, CompactAt: -1}
	w := newWALWorld(t, Params{Dim: 6, Beta: 0.3, Seed: 237}, clustered(237, 60, 6, 3), opts)
	first, second := corruptNewestCheckpoint(t, w, dir, 238)
	before := walDirFiles(t, dir)
	flipped, err := os.ReadFile(filepath.Join(dir, second))
	if err != nil {
		t.Fatal(err)
	}
	_, lerr := LoadEncryptedDatabase(bytes.NewReader(flipped))
	if lerr == nil {
		t.Fatal("the flipped checkpoint loads")
	}
	_, _, err = OpenServer(dir, opts)
	if err == nil || !strings.Contains(err.Error(), second) || !strings.Contains(err.Error(), lerr.Error()) || strings.Contains(err.Error(), first) {
		t.Fatalf("OpenServer = %v, want a refusal naming %s and saying %q", err, second, lerr)
	}
	if !maps.Equal(walDirFiles(t, dir), before) {
		t.Fatal("a refused log directory changed")
	}
}

// corruptNewestCheckpoint churns w's server through two folds, each
// checkpointed into dir, and a tail after them, then closes it. It puts
// the first fold's checkpoint file back beside the second, flips one byte
// of the second, and returns both names.
func corruptNewestCheckpoint(t *testing.T, w *testWorld, dir string, seed uint64) (first, second string) {
	t.Helper()
	var firstBytes []byte
	// churnWAL counts every id live, so only the first round deletes: two
	// mutations are two inserts.
	for fold, writes := range []int{6, 2} {
		churnWAL(t, w, 6, writes, seed+uint64(fold))
		if _, err := w.server.Flush(); err != nil {
			t.Fatal(err)
		}
		st := w.server.WALStats()
		if fold == 0 {
			first = st.Checkpoint
			b, err := os.ReadFile(filepath.Join(dir, first))
			if err != nil {
				t.Fatal(err)
			}
			firstBytes = b
		}
		second = st.Checkpoint
	}
	churnWAL(t, w, 6, 2, seed+2)
	if err := w.server.Close(); err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatalf("both folds checkpointed as %s", first)
	}
	if _, err := os.Stat(filepath.Join(dir, first)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the second checkpoint left the first in place: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, first), firstBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, second)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return first, second
}

// FuzzParseMutation: a log record is bytes read back from disk after a
// crash. Whatever its kind and payload, parseMutation and check refuse it
// with an error or pass it, and none panics. A mutation that passes is one
// apply takes: the snapshot moves by exactly that write.
func FuzzParseMutation(f *testing.F) {
	const n, dim = 24, 4
	data := clustered(39, n, dim, 2)
	owner, err := NewDataOwner(Params{Dim: dim, Beta: 0.5, Seed: 39, Index: "hnsw", PQ: true, PQM: 2})
	if err != nil {
		f.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(data)
	if err != nil {
		f.Fatal(err)
	}
	base, err := NewServerWith(edb, ServerOptions{CompactAt: -1})
	if err != nil {
		f.Fatal(err)
	}
	if err := base.Delete(3); err != nil {
		f.Fatal(err)
	}
	p, err := owner.EncryptVector(data[0])
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range []mutation{
		{kind: wal.KindInsert, id: n, p: p},
		{kind: wal.KindInsert, id: n + 1, p: p},
		{kind: wal.KindDelete, id: 5},
		{kind: wal.KindDelete, id: 3},
		{kind: wal.KindDelete, id: n},
	} {
		b := appendMutation(nil, m)
		f.Add(uint8(m.kind), b)
		f.Add(uint8(m.kind), b[:len(b)-3])
	}
	f.Add(uint8(wal.KindBarrier), frame.AppendU64(nil, 1))
	sp := base.snap.Load()
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		m, err := parseMutation(wal.Kind(kind), payload)
		if err != nil || sp.check(m) != nil {
			return
		}
		s := &Server{compactAt: -1}
		s.apply(sp, m)
		next := s.snap.Load()
		grew, died := 0, 0
		if m.kind == wal.KindInsert {
			grew = 1
		} else {
			died = 1
		}
		if next.epoch != sp.epoch+1 || next.edb.DCE.Len() != sp.edb.DCE.Len()+grew || next.live() != sp.live()+grew-died || !next.deadAt(m.id) == (died == 1) {
			t.Fatalf("%v of id %d moved the snapshot from epoch %d, %d records, %d live to %d, %d, %d",
				m.kind, m.id, sp.epoch, sp.edb.DCE.Len(), sp.live(), next.epoch, next.edb.DCE.Len(), next.live())
		}
	})
}
