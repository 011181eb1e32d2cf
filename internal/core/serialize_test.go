package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ppanns/internal/frame"
	"ppanns/internal/index"
	"ppanns/internal/vec"
)

func TestUserKeyRoundTrip(t *testing.T) {
	data := clustered(31, 300, 10, 4)
	w := newWorld(t, Params{Dim: 10, Beta: 0.8, Seed: 31}, data)

	var buf bytes.Buffer
	if err := SaveUserKey(&buf, w.owner.UserKey()); err != nil {
		t.Fatal(err)
	}
	key2, err := LoadUserKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	user2, err := NewUser(key2)
	if err != nil {
		t.Fatal(err)
	}
	// Queries built with the deserialized key must work against the
	// original server with full fidelity.
	queries := makeQueries(32, data, 15, 0.3)
	for _, q := range queries {
		tok, err := user2.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.server.Search(tok, 5, SearchOptions{KPrime: 40})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(data, q, 5, nil)
		if recallOf(got, want) < 0.8 {
			t.Fatalf("recall with deserialized key too low: got %v want %v", got, want)
		}
	}
}

func TestUserKeyValidation(t *testing.T) {
	if err := SaveUserKey(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("expected error for nil key")
	}
	if _, err := LoadUserKey(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("expected error for garbage input")
	}
	valid := userKeyBytes(t, 6, 72)
	// A reloaded key saves to the same bytes: every field survived.
	k, err := LoadUserKey(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := SaveUserKey(&again, k); err != nil || !bytes.Equal(again.Bytes(), valid) {
		t.Fatalf("a reloaded key saves differently (%v)", err)
	}
	sapLen := len(userKeyMagic) + 28
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"truncated", valid[:len(valid)-1], "truncated"},
		{"trailing byte", append(append([]byte(nil), valid...), 0), "trailing"},
		{"no SAP magic", append(append([]byte(userKeyMagic), 'x'), valid[len(userKeyMagic)+1:]...), "re-key with ppanns-dbtool encrypt"},
		{"no DCE magic", append(append([]byte(nil), valid[:sapLen]...), valid[sapLen+1:]...), "re-key with ppanns-dbtool encrypt"},
	} {
		if _, err := LoadUserKey(bytes.NewReader(c.data)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// userKeyBytes is the saved user key of a small seeded d-dimensional
// database.
func userKeyBytes(t testing.TB, dim int, seed uint64) []byte {
	t.Helper()
	owner, err := NewDataOwner(Params{Dim: dim, Beta: 0.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.EncryptDatabase(clustered(seed, 20, dim, 2)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveUserKey(&buf, owner.UserKey()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGobUserKeyRefused: a user key file written by the last gob build
// (testdata/userkey-gob.key, d=4) is refused with the fix in the message.
func TestGobUserKeyRefused(t *testing.T) {
	data, err := os.ReadFile("testdata/userkey-gob.key")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadUserKey(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "re-key with ppanns-dbtool encrypt") {
		t.Fatalf("a gob user key file loaded as %v, want the re-key message", err)
	}
}

// FuzzLoadUserKey: a user key file is bytes off disk. Whatever they are,
// LoadUserKey refuses them with an error or returns a key whose parts
// have a dimension, without panicking and without allocating more than
// frame.MaxLen + 64 KiB.
func FuzzLoadUserKey(f *testing.F) {
	for _, dim := range []int{1, 4} {
		f.Add(userKeyBytes(f, dim, 73))
	}
	if gobKey, err := os.ReadFile("testdata/userkey-gob.key"); err == nil {
		f.Add(gobKey)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		k, err := LoadUserKey(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > frame.MaxLen+64<<10 {
			t.Fatalf("a %d-byte input allocated %d bytes", len(data), got)
		}
		if err == nil && (k.DCE.Dim() <= 0 || k.SAP.Dim() <= 0) {
			t.Fatalf("loaded an implausible key: DCE dim %d, SAP dim %d", k.DCE.Dim(), k.SAP.Dim())
		}
	})
}

// TestEncryptedDatabaseRoundTrip: on hnsw, ivf+PQ and hnsw+PQ, each with a
// tombstoned id, a saved database loads back record for record (the
// deleted record's bytes never reach the file), answers as the original
// does, accepts inserts, and saves to the very bytes it was loaded from, so
// every section is read back where it was written.
func TestEncryptedDatabaseRoundTrip(t *testing.T) {
	data := clustered(33, 400, 8, 4)
	queries := makeQueries(34, data, 15, 0.3)
	for _, params := range []Params{
		{Dim: 8, Beta: 0.5, Seed: 33, Index: "hnsw"},
		{Dim: 8, Beta: 0.5, Seed: 33, Index: "ivf", PQ: true, PQM: 4},
		{Dim: 8, Beta: 0.5, Seed: 33, Index: "hnsw", PQ: true, PQM: 4},
	} {
		name := fmt.Sprintf("%s (PQ %v)", params.Index, params.PQ)
		w := newWorld(t, params, data)
		// Delete one id so the ids column skips one.
		if err := w.server.Delete(7); err != nil {
			t.Fatal(err)
		}
		orig := flushed(t, w.server)
		blob := saveBytes(t, orig)
		edb2, err := LoadEncryptedDatabase(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, edb2), blob) {
			t.Fatalf("%s: a loaded database saves other bytes than it was loaded from", name)
		}
		// The records come back bit for bit, each under its id, and the
		// deleted one not at all.
		if !slices.Equal(edb2.ids, orig.ids) || edb2.Len() != orig.Len() {
			t.Fatalf("%s: ids %d of %d after the round trip, %d of %d before", name, edb2.Live(), edb2.Len(), orig.Live(), orig.Len())
		}
		for slot := range orig.Live() {
			if !sameBits(edb2.DCE.Record(slot), orig.DCE.Record(slot)) {
				t.Fatalf("%s: record of id %d changed in the round trip", name, orig.ids[slot])
			}
		}
		if (edb2.PQ != nil) != params.PQ {
			t.Fatalf("%s: loaded with a PQ tier %v", name, edb2.PQ != nil)
		}
		server2, err := NewServer(edb2)
		if err != nil {
			t.Fatal(err)
		}
		if server2.Len() != 400 {
			t.Fatalf("%s: loaded Len = %d", name, server2.Len())
		}
		if !server2.Deleted(7) {
			t.Fatalf("%s: tombstone lost", name)
		}
		for _, q := range queries {
			tok, err := w.user.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			a, err := w.server.Search(tok, 5, SearchOptions{KPrime: 40})
			if err != nil {
				t.Fatal(err)
			}
			b, err := server2.Search(tok, 5, SearchOptions{KPrime: 40})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a, b) {
				t.Fatalf("%s: answers %v before the round trip, %v after", name, a, b)
			}
		}
		// Loaded database must accept inserts.
		payload, err := w.owner.EncryptVector(data[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := server2.Insert(payload); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadEncryptedDatabaseGarbage(t *testing.T) {
	if _, err := LoadEncryptedDatabase(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("expected error for garbage")
	}
	if _, err := LoadEncryptedDatabase(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty stream")
	}
}

// TestSaveRefusesMisSizedSAP: the file writes the SAP column once, for
// every record, so Save refuses a database whose column is missing, short,
// long or of another dimension instead of writing a file no loader reads.
func TestSaveRefusesMisSizedSAP(t *testing.T) {
	edb := flushed(t, newWorld(t, Params{Dim: 8, Beta: 0.5, Seed: 38}, clustered(38, 40, 8, 2)).server)
	for name, sap := range map[string]*vec.Dataset{
		"nil":         nil,
		"39 rows":     edb.SAP.Gather(seqIDs(39)),
		"41 rows":     edb.SAP.Gather(append(seqIDs(40), 0)),
		"dimension 9": vec.ZeroDataset(9, 40),
	} {
		bad := *edb
		bad.SAP = sap
		if err := bad.Save(io.Discard); err == nil || !strings.Contains(err.Error(), "SAP column") {
			t.Errorf("%s: Save = %v, want a refused SAP column", name, err)
		}
	}
}

// seqIDs is the ids 0..n-1.
func seqIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestLoadRefusals: what LoadEncryptedDatabase will not read, it refuses with
// an error — never a panic, never an allocation sized by a number the file
// merely claims. The earlier format generations get index.ErrOldFormat; a
// file tagged with a backend name no build serves (nsg, lsh) is refused as
// an unknown backend; a header that lies about the record count, or an arena cut
// short, fails where the bytes run out; an ids column that does not rise
// strictly, names an id at or past the id space, or is longer than the id
// space is refused; a PQ or index section whose header lies is refused
// before it sizes anything.
func TestLoadRefusals(t *testing.T) {
	w := newWorld(t, Params{Dim: 8, Beta: 0.5, Seed: 35}, clustered(35, 60, 8, 3))
	edb := flushed(t, w.server)
	valid := saveBytes(t, edb)
	withMagic := func(magic string) []byte {
		return append([]byte(magic), valid[len(edbMagic):]...)
	}
	// The backend tag follows the magic as one length byte and the name.
	withTag := func(tag string) []byte {
		b := append([]byte(edbMagic), byte(len(tag)))
		b = append(b, tag...)
		return append(b, valid[len(edbMagic)+1+len(edb.Backend):]...)
	}
	// A plausible header claiming 2^30 records, then 8 bytes of them.
	head := len(edbMagic) + 1 + len(edb.Backend) + 8
	lying := append([]byte(nil), valid[:head]...)
	lying = binary.LittleEndian.AppendUint64(lying, 1<<30)
	lying = binary.LittleEndian.AppendUint64(lying, 1<<30)
	lying = append(lying, make([]byte, 8)...)
	// The ids column follows the header's id space and record count, one
	// i32 per record; each lie is resealed, so the ids check must catch it.
	idsLying := func(patch func(b []byte)) []byte {
		b := slices.Clone(valid)
		patch(b)
		return resealed(b)
	}
	ids := head + 2*8
	id := func(b []byte, j int, v uint32) { binary.LittleEndian.PutUint32(b[ids+4*j:], v) }
	if edb.Live() != 60 || edb.Len() != 60 {
		t.Fatalf("the test database holds %d records of %d ids, want 60 of 60", edb.Live(), edb.Len())
	}
	// The PQ section follows the PQ flag: m, then k.
	withPQ := flushed(t, newWorld(t, Params{Dim: 8, Beta: 0.5, Seed: 36, PQ: true, PQM: 4}, clustered(36, 60, 8, 3)).server)
	pqLying := saveBytes(t, withPQ)
	binary.LittleEndian.PutUint64(pqLying[pqSectionOffset(withPQ)+1+8:], 1<<33)
	// Each backend's section follows the PQ flag; the lie sits at field
	// bytes into it, behind a database header that tells the truth.
	sectionLying := func(backend string, field int, v uint64) []byte {
		e := flushed(t, newWorld(t, Params{Dim: 8, Beta: 0.5, Seed: 35, Index: backend}, clustered(35, 60, 8, 3)).server)
		b := saveBytes(t, e)
		binary.LittleEndian.PutUint64(b[pqSectionOffset(e)+1+field:], v)
		return b
	}

	for _, c := range []struct {
		name string
		blob []byte
		old  bool
		msg  string // a substring the error must carry, if set
	}{
		{"PPANNSD2", withMagic("PPANNSD2"), true, ""},
		{"PPANNSD3", withMagic("PPANNSD3"), true, ""},
		{"PPANNSD4", withMagic("PPANNSD4"), true, ""},
		{"PPANNSD5", withMagic("PPANNSD5"), true, "re-encrypt"},
		{"PPANNSD6", withMagic("PPANNSD6"), true, "re-encrypt"},
		{"PPANNSD7", withMagic("PPANNSD7"), true, "re-encrypt"},
		{"tagged nsg", withTag("nsg"), false, `unknown backend "nsg"`},
		{"tagged lsh", withTag("lsh"), false, `unknown backend "lsh"`},
		{"header claims 2^30 records", lying, false, "truncated"},
		{"ids not increasing", idsLying(func(b []byte) { id(b, 5, 4) }), false, "ids must rise strictly"},
		{"an id at the id space", idsLying(func(b []byte) { id(b, 59, 60) }), false, "ids must rise strictly"},
		{"more ids than the id space", idsLying(func(b []byte) { binary.LittleEndian.PutUint64(b[head:], 59) }), false, "implausible header"},
		{"arena cut short", valid[:pqSectionOffset(edb)/2], false, ""},
		{"PQ section claims 2^33 centroids", pqLying, false, "implausible"},
		{"hnsw graph claims 2^31 levels", sectionLying("hnsw", 4*8, 1<<31), false, "implausible"},
		{"ivf index claims 2^30 lists", sectionLying("ivf", 0, 1<<30), false, "truncated"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := LoadEncryptedDatabase(bytes.NewReader(c.blob))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: loaded a database of %d records", c.name, got.Len())
			continue
		}
		if errors.Is(err, index.ErrOldFormat) != c.old {
			t.Errorf("%s: err = %v; wraps ErrOldFormat = %v, want %v", c.name, err, !c.old, c.old)
		}
		if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: err = %v, want it to say %q", c.name, err, c.msg)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%s: refusing %d bytes allocated %d", c.name, len(c.blob), alloc)
		}
	}
}

// TestOldFormatFilesRefused: database files the last builds of earlier
// generations wrote (testdata/db-d5.ppanns: PPANNSD5, hnsw, d=2, 10
// records; testdata/db-d6.ppanns: PPANNSD6, hnsw+PQ, d=2, 10 records;
// testdata/db-d7.ppanns: PPANNSD7, hnsw+PQ, d=2, 12 ids, 3 of them folded
// away as dead slots) are refused as an earlier generation, with the fix
// in the message — by LoadEncryptedDatabase, and by OpenServer over a WAL
// directory whose only checkpoint is the PPANNSD6 file.
func TestOldFormatFilesRefused(t *testing.T) {
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, index.ErrOldFormat) || !strings.Contains(err.Error(), "re-encrypt") {
			t.Errorf("%s: err = %v, want ErrOldFormat with the re-encrypt message", what, err)
		}
	}
	for _, file := range []string{"testdata/db-d5.ppanns", "testdata/db-d6.ppanns", "testdata/db-d7.ppanns"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		_, err = LoadEncryptedDatabase(bytes.NewReader(data))
		refused(file, err)
	}

	d6, err := os.ReadFile("testdata/db-d6.ppanns")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := ServerOptions{WALDir: dir, CompactAt: -1}
	w := newWALWorld(t, Params{Dim: 2, Beta: 0.5, Seed: 6}, clustered(6, 10, 2, 2), opts)
	if err := w.server.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*"))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("want one checkpoint file, found %v (%v)", ckpts, err)
	}
	if err := os.WriteFile(ckpts[0], d6, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenServer(dir, opts)
	refused("OpenServer over a PPANNSD6 checkpoint", err)
}

// saveBytes is e's database file.
func saveBytes(t testing.TB, e *EncryptedDatabase) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// resealed is blob with its last four bytes replaced by the CRC32 of the
// rest: a database file whose trailer matches whatever else it holds.
func resealed(blob []byte) []byte {
	if len(blob) < 4 {
		return blob
	}
	body := blob[:len(blob)-4]
	return binary.LittleEndian.AppendUint32(slices.Clone(body), crc32.ChecksumIEEE(body))
}

// FuzzLoadEncryptedDatabase feeds LoadEncryptedDatabase mutations of one
// small valid file per backend (ivf also with a PQ tier, hnsw also with a
// PQ tier, compacted after deletions so that its ids skip the deleted
// ones), of the same bytes under the retired magics, and
// of the ivf file tagged with backend names no build serves (nsg, lsh),
// which the loader refuses as unknown. Each input
// is resealed — its last four bytes replaced by the CRC32 of the rest — so
// a mutation anywhere reaches the section decoders and the cross-checks
// instead of stopping at the checksum. Whatever arrives, the loader returns
// an error or a database that hangs together: it never panics, and nothing
// it allocates is sized by a count the input merely claims.
func FuzzLoadEncryptedDatabase(f *testing.F) {
	data := clustered(37, 24, 4, 2)
	for _, c := range []struct {
		params Params
		dead   []int
	}{
		{Params{Dim: 4, Beta: 0.5, Seed: 37, Index: "hnsw"}, nil},
		{Params{Dim: 4, Beta: 0.5, Seed: 37, Index: "ivf"}, nil},
		{Params{Dim: 4, Beta: 0.5, Seed: 37, Index: "ivf", PQ: true, PQM: 2}, nil},
		{Params{Dim: 4, Beta: 0.5, Seed: 37, Index: "hnsw", PQ: true, PQM: 2}, []int{0, 5, 23}},
	} {
		owner, err := NewDataOwner(c.params)
		if err != nil {
			f.Fatal(err)
		}
		edb, err := owner.EncryptDatabase(data)
		if err != nil {
			f.Fatal(err)
		}
		if c.dead != nil {
			srv, err := NewServer(edb)
			if err != nil {
				f.Fatal(err)
			}
			for _, id := range c.dead {
				if err := srv.Delete(id); err != nil {
					f.Fatal(err)
				}
			}
			edb = flushed(f, srv)
		}
		blob := saveBytes(f, edb)
		f.Add(blob)
		if c.params.Index == "hnsw" && c.dead == nil {
			for _, magic := range []string{"PPANNSD2", "PPANNSD3", "PPANNSD4", "PPANNSD5", "PPANNSD6", "PPANNSD7"} {
				f.Add(resealed(append([]byte(magic), blob[len(edbMagic):]...)))
			}
		}
		if c.params.Index == "ivf" && !c.params.PQ {
			// The backend tag follows the magic as one length byte and the name.
			rest := blob[len(edbMagic)+1+len(c.params.Index):]
			for _, tag := range []string{"nsg", "lsh"} {
				b := append([]byte(edbMagic), byte(len(tag)))
				f.Add(resealed(append(append(b, tag...), rest...)))
			}
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		edb, err := LoadEncryptedDatabase(bytes.NewReader(resealed(blob)))
		if err != nil {
			return
		}
		n := edb.Live()
		if n > edb.Len() || edb.DCE.Len() != n || edb.Index.Len() != n || edb.SAP.Len() != n || (edb.PQ != nil && edb.PQ.Codes.Len() != n) {
			t.Fatalf("loaded %d records of %d ids under an index of %d and %d SAP rows", n, edb.Len(), edb.Index.Len(), edb.SAP.Len())
		}
		for slot, id := range edb.ids {
			if _, ok := edb.Index.Vector(slot); !ok || len(edb.DCE.Record(slot)) != 4*edb.DCE.CtDim() || int(id) >= edb.Len() || slot > 0 && id <= edb.ids[slot-1] {
				t.Fatalf("slot %d: id %d of %d, in the index %v", slot, id, edb.Len(), ok)
			}
		}
	})
}

func TestCorruptedDatabaseDetected(t *testing.T) {
	data := clustered(65, 300, 8, 3)
	w := newWorld(t, Params{Dim: 8, Beta: 0.3, Seed: 65}, data)
	var buf bytes.Buffer
	err := flushed(t, w.server).Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one byte inside the first ciphertext record (past magic+header).
	corrupt := append([]byte(nil), raw...)
	corrupt[64] ^= 0xFF
	if _, err := LoadEncryptedDatabase(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("bit flip in ciphertext payload not detected")
	}
	// Unmodified stream still loads.
	if _, err := LoadEncryptedDatabase(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine stream failed to load: %v", err)
	}
}

// fileSection is a named byte range [lo, hi) of a database file.
type fileSection struct {
	name   string
	lo, hi int
}

// fileSections splits blob, e's database file, into its sections.
func fileSections(e *EncryptedDatabase, blob []byte) []fileSection {
	var out []fileSection
	at := 0
	add := func(name string, size int) {
		out = append(out, fileSection{name, at, at + size})
		at += size
	}
	n, dim := e.Live(), e.Dim
	add("header", len(edbMagic)+1+len(e.Backend)+3*8)
	add("ids", 4*n)
	add("ciphertexts", n*4*e.DCE.CtDim()*8)
	add("SAP rows", n*dim*8)
	add("PQ flag", 1)
	if e.PQ != nil {
		add("PQ header", 3*8)
		add("PQ seed", 8)
		add("PQ centroids", e.PQ.Book.K()*dim*8)
		add("PQ codes", n*e.PQ.Book.M())
	}
	switch e.Backend {
	case "ivf":
		nlist := int(binary.LittleEndian.Uint64(blob[at:]))
		add("ivf header", 8)
		add("ivf centroids", nlist*dim*8)
		add("lists", len(blob)-4-at)
	default:
		add("hnsw header", 5*8)
		add("adjacency", len(blob)-4-at)
	}
	add("trailer", 4)
	return out
}

// TestCorruptByteAnywhereRefused: one CRC32 covers the whole file, so a
// byte flipped anywhere — in the header, the ids, a record, the
// PQ tier, the SAP rows the filter ranks by, a link, a list, or the
// trailer itself — fails the load, on hnsw, ivf and ivf+pq databases
// carrying tombstones after a fold.
func TestCorruptByteAnywhereRefused(t *testing.T) {
	data := clustered(67, 300, 8, 4)
	for _, params := range []Params{
		{Dim: 8, Beta: 0.5, Seed: 67, Index: "hnsw"},
		{Dim: 8, Beta: 0.5, Seed: 68, Index: "ivf"},
		{Dim: 8, Beta: 0.5, Seed: 69, Index: "ivf", PQ: true, PQM: 4},
	} {
		w := newWorld(t, params, data)
		for id := 3; id < 300; id += 29 {
			if err := w.server.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		edb := flushed(t, w.server)
		blob := saveBytes(t, edb)
		if _, err := LoadEncryptedDatabase(bytes.NewReader(blob)); err != nil {
			t.Fatal(err)
		}
		sections := fileSections(edb, blob)
		if end := sections[len(sections)-1].hi; end != len(blob) {
			t.Fatalf("%s: the sections end at byte %d of %d", params.Index, end, len(blob))
		}
		for _, s := range sections {
			if s.hi <= s.lo {
				t.Fatalf("%s: section %s is empty", params.Index, s.name)
			}
			for _, at := range []int{s.lo, (s.lo + s.hi) / 2, s.hi - 1} {
				bad := slices.Clone(blob)
				bad[at] ^= 0x10
				if _, err := LoadEncryptedDatabase(bytes.NewReader(bad)); err == nil {
					t.Errorf("%s (PQ %v): a flipped byte %d of the %s loaded", params.Index, params.PQ, at-s.lo, s.name)
				}
			}
		}
	}
}
