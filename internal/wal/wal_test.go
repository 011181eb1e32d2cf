package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ppanns/internal/frame"
)

// payload builds a distinguishable payload for record i.
func payload(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d-payload", i))
}

// record is one record envelope as Append writes it.
func record(kind Kind, epoch uint64, p []byte) []byte {
	b, err := frame.AppendEnvelope(nil, logGen, byte(kind), epoch, func(b []byte) []byte { return append(b, p...) })
	if err != nil {
		panic(err)
	}
	return b
}

// oldSegment is segment seq as log generation 1 wrote it, holding an
// insert record per epoch: the header [PPWALSG1][seq u64], then per record
// [len u32][kind u8][epoch u64][payload][crc32c u32].
func oldSegment(seq uint64, epochs ...uint64) []byte {
	b := binary.LittleEndian.AppendUint64([]byte(oldSegMagic), seq)
	for _, e := range epochs {
		at, p := len(b), payload(int(e))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = binary.LittleEndian.AppendUint64(append(b, byte(KindInsert)), e)
		b = append(b, p...)
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[at:], crc32.MakeTable(crc32.Castagnoli)))
	}
	return b
}

// gen2Segment is segment seq as log generation 2 wrote it, holding an
// insert record per epoch: this generation's envelopes, stamped 2, opened
// by a header envelope carrying PPWALSG2.
func gen2Segment(seq uint64, epochs ...uint64) []byte {
	return stampedSegment(2, seq, epochs...)
}

// stampedSegment is segment seq with every envelope stamped gen, holding
// an insert record per epoch, opened by a header carrying PPWALSG<gen>.
func stampedSegment(gen byte, seq uint64, epochs ...uint64) []byte {
	env := func(b []byte, tag byte, word uint64, p []byte) []byte {
		b, err := frame.AppendEnvelope(b, gen, tag, word, func(b []byte) []byte { return append(b, p...) })
		if err != nil {
			panic(err)
		}
		return b
	}
	b := env(nil, 0, seq, []byte(fmt.Sprintf("PPWALSG%d", gen)))
	for _, e := range epochs {
		b = env(b, byte(KindInsert), e, payload(int(e)))
	}
	return b
}

// lyingTail is a segment of two records followed by the first 512 bytes
// of a third whose length claims just under frame.MaxLen: the residue of a
// crash, or of a hostile file. The tail outgrows the reader's buffer, so
// the buffer must grow, and by what arrives rather than by the claim.
func lyingTail() []byte {
	b := append(segHeader(1), record(KindInsert, 1, payload(0))...)
	b = append(b, record(KindInsert, 2, payload(1))...)
	tail := record(KindInsert, 3, make([]byte, 1000))[:512]
	copy(tail, frame.AppendU32(nil, frame.MaxLen-1))
	return append(b, tail...)
}

// dirFiles maps every file in dir to its bytes.
func dirFiles(t testing.TB, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// openAt is Open with the active segment rotating at rotateAt bytes, so a
// few records span several segments.
func openAt(dir string, opts Options, rotateAt int64) (*Log, *Recovery, error) {
	l, rec, err := Open(dir, opts)
	if err == nil {
		l.rotateAt = rotateAt
	}
	return l, rec, err
}

// appendN appends n insert records with epochs base+1..base+n, committing
// each, and returns the log.
func appendN(t *testing.T, l *Log, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn, err := l.Append(KindInsert, uint64(base+i+1), payload(base+i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := l.Commit(lsn); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
}

// collect replays records after afterEpoch into (kind, epoch, payload) rows.
type row struct {
	kind  Kind
	epoch uint64
	pay   string
}

func collect(t *testing.T, l *Log, afterEpoch uint64) []row {
	t.Helper()
	var rows []row
	err := l.Replay(afterEpoch, func(k Kind, e uint64, p []byte) error {
		rows = append(rows, row{k, e, string(p)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return rows
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{Sync: SyncPolicy{Every: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Segments != 0 || rec.Records != 0 || rec.Truncated != "" {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	appendN(t, l, 0, 5)
	if _, err := l.Append(KindDelete, 6, binary.LittleEndian.AppendUint64(nil, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec2.Records != 6 || rec2.Segments != 1 || rec2.Truncated != "" {
		t.Fatalf("recovery = %+v", rec2)
	}
	rows := collect(t, l2, 0)
	if len(rows) != 6 {
		t.Fatalf("replayed %d records, want 6", len(rows))
	}
	for i := 0; i < 5; i++ {
		want := row{KindInsert, uint64(i + 1), string(payload(i))}
		if rows[i] != want {
			t.Fatalf("row %d = %+v, want %+v", i, rows[i], want)
		}
	}
	if rows[5].kind != KindDelete || rows[5].epoch != 6 {
		t.Fatalf("row 5 = %+v", rows[5])
	}
	// Epoch filter.
	if got := collect(t, l2, 4); len(got) != 2 {
		t.Fatalf("replay after epoch 4: %d records, want 2", len(got))
	}
}

func TestRotationAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openAt(dir, Options{}, 128)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 40)
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("got %d segments, want rotation to produce ≥ 3", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := openAt(dir, Options{}, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Records != 40 || rec.Segments != st.Segments {
		t.Fatalf("recovery = %+v, want 40 records in %d segments", rec, st.Segments)
	}
	rows := collect(t, l2, 0)
	if len(rows) != 40 {
		t.Fatalf("replayed %d, want 40", len(rows))
	}
	for i, r := range rows {
		if r.epoch != uint64(i+1) || r.pay != string(payload(i)) {
			t.Fatalf("row %d out of order: %+v", i, r)
		}
	}
	// Appending after recovery continues the last segment.
	appendN(t, l2, 40, 3)
	if got := l2.Stats().Segments; got < st.Segments {
		t.Fatalf("segments shrank after reopen: %d < %d", got, st.Segments)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncPolicy{Every: 1}})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 8)
	l.Close()

	// Append a torn record: a valid header promising more payload than
	// exists.
	name := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := record(KindInsert, 99, []byte("lost-to-the-crash"))
	if _, err := f.Write(torn[:len(torn)-7]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Records != 8 {
		t.Fatalf("recovered %d records, want 8", rec.Records)
	}
	if rec.Truncated == "" || rec.TruncatedBytes != int64(len(torn)-7) {
		t.Fatalf("recovery did not report the torn tail: %+v", rec)
	}
	if rows := collect(t, l2, 0); len(rows) != 8 {
		t.Fatalf("replayed %d, want 8", len(rows))
	}
	// The log must be appendable after repair, and the repaired file must
	// scan clean next time.
	appendN(t, l2, 8, 2)
	l2.Close()
	_, rec3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec3.Records != 10 || rec3.Truncated != "" {
		t.Fatalf("post-repair recovery = %+v", rec3)
	}
}

// opFS records the removals, directory syncs and append-opens it passes
// on; a non-nil syncErr fails every SyncDir.
type opFS struct {
	FS
	ops     []string
	syncErr error
}

func (f *opFS) Remove(name string) error {
	f.ops = append(f.ops, "remove "+filepath.Base(name))
	return f.FS.Remove(name)
}

func (f *opFS) SyncDir(dir string) error {
	f.ops = append(f.ops, "syncdir")
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.FS.SyncDir(dir)
}

func (f *opFS) Append(name string) (File, error) {
	f.ops = append(f.ops, "append "+filepath.Base(name))
	return f.FS.Append(name)
}

// TestTornHeaderRemovalDurable: a torn header in the last segment N is
// repaired by removing N, which makes the sealed segment N-1 active
// again. The removal must reach the directory before N-1 is reopened for
// appending; otherwise a crash could bring N back over an N-1 with a torn
// tail, a log Open refuses. When the directory sync fails, Open fails and
// appends nothing.
func TestTornHeaderRemovalDurable(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openAt(dir, Options{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 30)
	n := l.Stats().Segments
	l.Close()
	if n < 3 {
		t.Fatalf("%d segments, want at least 3", n)
	}
	last, prev := segName(uint64(n)), segName(uint64(n-1))
	size, err := osFS{}.Size(filepath.Join(dir, last))
	if err != nil {
		t.Fatal(err)
	}
	lastRecs := 0
	if _, err := readSegment(osFS{}, dir, last, uint64(n), size, func(Kind, uint64, []byte) error { lastRecs++; return nil }); err != nil {
		t.Fatal(err)
	}
	const want = 30
	if err := os.WriteFile(filepath.Join(dir, last), segHeader(uint64(n))[:10], 0o644); err != nil {
		t.Fatal(err)
	}

	failing := &opFS{FS: osFS{}, syncErr: errors.New("sync refused")}
	if _, _, err := Open(dir, Options{FS: failing}); err == nil || !strings.Contains(err.Error(), "sync refused") {
		t.Fatalf("Open with a failing directory sync = %v, want its error", err)
	}
	if slices.Contains(failing.ops, "append "+prev) {
		t.Fatalf("Open reopened %s although the removal was not made durable: %v", prev, failing.ops)
	}

	// Put the torn segment back, as the failed sync may have left it.
	if err := os.WriteFile(filepath.Join(dir, last), segHeader(uint64(n))[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	fs := &opFS{FS: osFS{}}
	l2, rec, err := openAt(dir, Options{FS: fs}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.Truncated, "corrupt header") || rec.Records != want-lastRecs {
		t.Fatalf("recovery = %+v, want the torn header of %s dropped and %d records", rec, last, want-lastRecs)
	}
	if got := []string{"remove " + last, "syncdir", "append " + prev}; !slices.Equal(fs.ops, got) {
		t.Fatalf("repair ran %v, want %v", fs.ops, got)
	}
	appendN(t, l2, 100, 3)
	l2.Close()
	_, rec3, err := openAt(dir, Options{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.Truncated != "" || rec3.Records != want-lastRecs+3 {
		t.Fatalf("post-repair recovery = %+v", rec3)
	}
}

// TestCorruptSealedSegmentRefused: rotation fsyncs a segment before it
// creates the next, so a crash tears only the last one. A flipped byte in
// an earlier segment means acknowledged writes were lost there: Open and
// Inspect refuse the log, naming the segment and the offset, and change no
// file.
func TestCorruptSealedSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openAt(dir, Options{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 30) // several segments
	if n := l.Stats().Segments; n < 3 {
		t.Fatalf("%d segments, want at least 3", n)
	}
	l.Close()

	// Flip one payload byte of the first record of the SECOND segment.
	name := filepath.Join(dir, segName(2))
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+frame.EnvelopeOverhead] ^= 0x40
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)

	where := fmt.Sprintf("%s at offset %d", segName(2), segHeaderSize)
	if _, err := Inspect(dir); err == nil || !strings.Contains(err.Error(), where) {
		t.Fatalf("Inspect = %v, want a refusal naming %s", err, where)
	}
	if _, _, err := openAt(dir, Options{}, 256); err == nil || !strings.Contains(err.Error(), where) {
		t.Fatalf("Open = %v, want a refusal naming %s", err, where)
	}
	if !maps.Equal(dirFiles(t, dir), before) {
		t.Fatal("a refused log directory changed")
	}
}

// TestOldGenerationLogRefused: a log of generation 1 or 2 is refused by
// Open and Inspect with the way forward, before anything is truncated or
// removed — read as this generation, its first segment would be a torn
// header, and Open would delete it.
func TestOldGenerationLogRefused(t *testing.T) {
	for gen, segment := range map[int]func(seq uint64, epochs ...uint64) []byte{1: oldSegment, 2: gen2Segment} {
		t.Run(fmt.Sprintf("generation %d", gen), func(t *testing.T) {
			dir := t.TempDir()
			for name, b := range map[string][]byte{
				segName(1):                segment(1, 1, 2),
				segName(2):                segment(2, 3),
				CheckpointName(0, 0):      []byte("snapshot"),
				"checkpoint-x.ppanns.tmp": []byte("half a snapshot"),
			} {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			before := dirFiles(t, dir)
			want := fmt.Sprintf("written by log generation %d, which this build does not read: checkpoint with the previous build", gen)
			if _, err := Inspect(dir); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Inspect = %v, want a refusal saying %q", err, want)
			}
			if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Open = %v, want a refusal saying %q", err, want)
			}
			if !maps.Equal(dirFiles(t, dir), before) {
				t.Fatal("a refused log directory changed")
			}
		})
	}
}

// TestNewerGenerationLogRefused: a log whose header is stamped with a
// later generation than this build's is a newer build's. Open and Inspect
// refuse it with that advice, not a downgrade's, and change no file.
func TestNewerGenerationLogRefused(t *testing.T) {
	dir := t.TempDir()
	for name, b := range map[string][]byte{
		segName(1):           stampedSegment(4, 1, 1, 2),
		segName(2):           stampedSegment(4, 2, 3),
		CheckpointName(0, 0): []byte("snapshot"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirFiles(t, dir)
	const want = "written by a newer build, at log generation 4 where this build reads 3: open the directory with that build"
	if _, err := Inspect(dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Inspect = %v, want a refusal saying %q", err, want)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v, want a refusal saying %q", err, want)
	}
	if !maps.Equal(dirFiles(t, dir), before) {
		t.Fatal("a refused log directory changed")
	}
}

// TestZeroedHeaderIsTorn: a last segment whose header is zeroed — what a
// crash can leave of a segment created just before it — is a torn header,
// not one of another generation: Open drops it and starts the log afresh.
func TestZeroedHeaderIsTorn(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), make([]byte, segHeaderSize), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !strings.Contains(rec.Truncated, "corrupt header") || rec.Records != 0 {
		t.Fatalf("recovery = %+v, want the zeroed header dropped", rec)
	}
}

// TestLyingLengthAllocatesLittle: a torn tail whose length field claims
// just under frame.MaxLen is read as the bytes arrive, so Inspect and Open
// each allocate far less than the claim, and Open truncates it.
func TestLyingLengthAllocatesLittle(t *testing.T) {
	dir := t.TempDir()
	seg := lyingTail()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var rec *Recovery
	var err error
	if got := allocated(func() { rec, err = Inspect(dir) }); err != nil || got >= 1<<20 {
		t.Fatalf("Inspect allocated %d bytes, %v", got, err)
	}
	if rec.Records != 2 || rec.TruncatedBytes != 512 {
		t.Fatalf("inspect = %+v, want 2 records and a 512-byte torn tail", rec)
	}
	var l *Log
	if got := allocated(func() { l, rec, err = Open(dir, Options{}) }); err != nil || got >= 1<<20 {
		t.Fatalf("Open allocated %d bytes, %v", got, err)
	}
	defer l.Close()
	if rec.Records != 2 || rec.TruncatedBytes != 512 {
		t.Fatalf("recovery = %+v, want 2 records and a 512-byte torn tail", rec)
	}
}

// TestAppendRefusesOversizedPayload: a payload over frame.MaxLen, which no
// scan would read back, is refused before anything is written, and the log
// stays healthy.
func TestAppendRefusesOversizedPayload(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(KindInsert, 1, make([]byte, frame.MaxLen+1)); err == nil {
		t.Fatal("an oversized payload was appended")
	}
	if st := l.Stats(); st.Appended != 0 || st.Bytes != segHeaderSize || l.Err() != nil {
		t.Fatalf("after the refusal: %+v, err %v", st, l.Err())
	}
	appendN(t, l, 0, 1)
}

func TestCheckpointGCAndRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := openAt(dir, Options{Sync: SyncPolicy{Every: 1}}, 256)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 20)
	blob := []byte("snapshot-at-epoch-20")
	b := Barrier{Epoch: 20, Gen: 1, Records: 20}
	if err := l.Checkpoint(b, func(w io.Writer) error { _, e := w.Write(blob); return e }); err != nil {
		t.Fatal(err)
	}
	// Segments wholly before the barrier must be gone.
	st := l.Stats()
	if st.Barrier == nil || st.Barrier.Epoch != 20 || st.Barrier.Name != CheckpointName(20, 1) {
		t.Fatalf("stats barrier = %+v", st.Barrier)
	}
	if st.Segments > 2 {
		t.Fatalf("GC left %d segments", st.Segments)
	}
	appendN(t, l, 20, 5)
	l.Close()

	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Barrier == nil || *rec.Barrier != b.withName() || rec.Records != 6 {
		t.Fatalf("recovered barrier = %+v in %d records, want it and the 5 after it", rec.Barrier, rec.Records)
	}
	got, err := io.ReadAll(mustOpenCheckpoint(t, l2, rec.Barrier.Name))
	if err != nil || string(got) != string(blob) {
		t.Fatalf("checkpoint content = %q, %v", got, err)
	}
	rows := collect(t, l2, rec.Barrier.Epoch)
	if len(rows) != 5 || rows[0].epoch != 21 {
		t.Fatalf("post-barrier replay = %+v", rows)
	}

	// A second checkpoint supersedes the first snapshot file.
	b2 := Barrier{Epoch: 25, Gen: 2, Records: 25}
	if err := l2.Checkpoint(b2, func(w io.Writer) error { _, e := w.Write([]byte("v2")); return e }); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.OpenCheckpoint(CheckpointName(20, 1)); err == nil {
		t.Fatal("superseded checkpoint file survived the sweep")
	}

	// A closed log refuses a checkpoint before writing anything: a fold
	// that starts after Close leaves the directory as Close left it.
	l2.Close()
	before, _ := os.ReadDir(dir)
	b3 := Barrier{Epoch: 30, Gen: 3, Records: 30}
	if err := l2.Checkpoint(b3, func(w io.Writer) error { _, e := w.Write([]byte("v3")); return e }); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint on a closed log: %v, want ErrClosed", err)
	}
	if after, _ := os.ReadDir(dir); len(after) != len(before) {
		t.Fatalf("checkpoint on a closed log left %d entries, %d before", len(after), len(before))
	}
}

func (b Barrier) withName() Barrier {
	if b.Name == "" {
		b.Name = CheckpointName(b.Epoch, b.Gen)
	}
	return b
}

func mustOpenCheckpoint(t *testing.T, l *Log, name string) io.ReadCloser {
	t.Helper()
	r, err := l.OpenCheckpoint(name)
	if err != nil {
		t.Fatalf("open checkpoint %s: %v", name, err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestSyncEveryNBatchesFsyncs(t *testing.T) {
	inj := &Injector{KillAfterBytes: -1}
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncPolicy{Every: 4}, FS: NewFaultyFS(inj)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	base := inj.Syncs()
	appendN(t, l, 0, 16)
	if got := inj.Syncs() - base; got != 4 {
		t.Fatalf("16 sequential commits at Every=4 performed %d fsyncs, want 4", got)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	inj := &Injector{KillAfterBytes: -1}
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncPolicy{Every: 1}, FS: NewFaultyFS(inj)})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := l.Append(KindInsert, uint64(w*per+i+1), payload(i))
				if err == nil {
					err = l.Commit(lsn)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appended != writers*per || st.Synced != st.Appended {
		t.Fatalf("stats = %+v, want %d appended and synced", st, writers*per)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("group commit: %d commits → %d fsyncs", writers*per, inj.Syncs())

	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Records != writers*per || rec.Truncated != "" {
		t.Fatalf("recovery = %+v", rec)
	}
}

func TestKillAfterBytesLeavesRecoverablePrefix(t *testing.T) {
	for _, kill := range []int64{segHeaderSize + 5, 200, 777, 2048} {
		inj := &Injector{KillAfterBytes: kill}
		dir := t.TempDir()
		l, _, err := Open(dir, Options{FS: NewFaultyFS(inj)})
		if err != nil {
			t.Fatal(err)
		}
		acked := 0
		for i := 0; i < 200; i++ {
			lsn, err := l.Append(KindInsert, uint64(i+1), payload(i))
			if err == nil {
				err = l.Commit(lsn)
			}
			if err != nil {
				break
			}
			acked++
		}
		if !inj.Dead() {
			t.Fatalf("kill=%d: injector never fired", kill)
		}
		// Every later operation must fail fast.
		if _, err := l.Append(KindInsert, 999, payload(0)); err == nil {
			t.Fatalf("kill=%d: append succeeded on poisoned log", kill)
		}
		l.Close()

		l2, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("kill=%d: reopen: %v", kill, err)
		}
		rows := collect(t, l2, 0)
		l2.Close()
		// OS-buffered policy acks before durability, so recovered count
		// may trail acked — but recovered records must be an exact,
		// in-order prefix.
		if len(rows) > acked+1 {
			t.Fatalf("kill=%d: recovered %d > acked %d + in-flight 1", kill, len(rows), acked)
		}
		for i, r := range rows {
			if r.epoch != uint64(i+1) || r.pay != string(payload(i)) {
				t.Fatalf("kill=%d: corrupt replay row %d: %+v", kill, i, r)
			}
		}
		if rec.Records != len(rows) {
			t.Fatalf("kill=%d: recovery reported %d, replayed %d", kill, rec.Records, len(rows))
		}
	}
}

func TestSyncErrorPoisonsLog(t *testing.T) {
	inj := &Injector{KillAfterBytes: -1, FailSyncAt: 3}
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncPolicy{Every: 1}, FS: NewFaultyFS(inj)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var commitErr error
	for i := 0; i < 10; i++ {
		lsn, err := l.Append(KindInsert, uint64(i+1), payload(i))
		if err != nil {
			commitErr = err
			break
		}
		if err := l.Commit(lsn); err != nil {
			commitErr = err
			break
		}
	}
	if !errors.Is(commitErr, ErrInjected) {
		t.Fatalf("commit error = %v, want injected fsync failure", commitErr)
	}
	if l.Err() == nil {
		t.Fatal("log not poisoned after fsync failure")
	}
	if _, err := l.Append(KindInsert, 99, payload(0)); !errors.Is(err, ErrInjected) {
		t.Fatalf("append after poison = %v", err)
	}
}

func TestIntervalSync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncPolicy{Interval: 5 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(KindInsert, 1, payload(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(lsn); err != nil { // returns immediately
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Synced < lsn {
		if time.Now().After(deadline) {
			t.Fatal("interval syncer never caught up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// streamPayload writes n bytes of a fixed pattern in uneven pieces of
// about frame.Encoder's 64 KiB chunk, and returns the first write error,
// as the Encoder does.
func streamPayload(n int) func(io.Writer) error {
	return func(w io.Writer) error {
		piece := make([]byte, 64<<10+13)
		for i := range piece {
			piece[i] = byte(i*7 + i>>8)
		}
		for k, left := 0, n; left > 0; k++ {
			m := min(left, len(piece)-k%5*1000)
			if _, err := w.Write(piece[:m]); err != nil {
				return err
			}
			left -= m
		}
		return nil
	}
}

// testFS wraps osFS: its files sleep before each write and count their
// Close calls, and its directory fsync fails when told to.
type testFS struct {
	FS
	slow        time.Duration
	failSyncDir bool
	closes      int
}

var errSyncDir = errors.New("sync dir failed")

func (fs *testFS) Create(name string) (File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &testFile{File: f, fs: fs}, nil
}

func (fs *testFS) SyncDir(dir string) error {
	if fs.failSyncDir {
		return errSyncDir
	}
	return fs.FS.SyncDir(dir)
}

type testFile struct {
	File
	fs *testFS
}

func (f *testFile) Write(p []byte) (int, error) {
	time.Sleep(f.fs.slow)
	return f.File.Write(p)
}

func (f *testFile) Close() error {
	f.fs.closes++
	return f.File.Close()
}

// errSeen records whether a Write through it failed.
type errSeen struct {
	w    io.Writer
	seen bool
}

func (e *errSeen) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	e.seen = e.seen || err != nil
	return n, err
}

// TestWriteFileAtomic drives the atomic-persist path: small and streamed
// payloads land byte for byte, and a write that fails, in the callback or
// in the file under it, keeps the old content, leaves no temp file and no
// writer goroutine. A directory fsync that fails comes after the rename:
// the new content is in place, the file was closed once.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("v1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("content = %q", got)
	}
	onlyOld := func(when string) {
		t.Helper()
		if got, _ := os.ReadFile(path); string(got) != "v1" {
			t.Fatalf("%s: content = %.20q, want the old content", when, got)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("%s: directory has %d entries, want 1", when, len(ents))
		}
	}

	// A failing writer must leave the old content and no temp file.
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	onlyOld("callback error")

	// More than three buffers' worth, in uneven pieces: the file holds
	// exactly what the callback writes into a bytes.Buffer.
	const big = 5*streamBufBytes + 12345
	var want bytes.Buffer
	if err := streamPayload(big)(&want); err != nil {
		t.Fatal(err)
	}
	streamed := filepath.Join(t.TempDir(), "streamed.bin")
	if err := WriteFileAtomic(streamed, streamPayload(big)); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(streamed); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed file: %d bytes, differs from the callback's %d", len(got), want.Len())
	}

	// The first case's file is slow, so a writer goroutine still running
	// after the call would show in the count. A write that fails reaches
	// the callback as an error from its Write.
	kill := func() FS { return NewFaultyFS(&Injector{KillAfterBytes: 3*streamBufBytes/2 + 7}) }
	for _, tc := range []struct {
		name       string
		fs         FS
		write      func(io.Writer) error
		want       error
		writeFails bool
	}{
		{"callback error after 2.5 MiB, slow file", &testFS{FS: osFS{}, slow: 20 * time.Millisecond}, func(w io.Writer) error {
			if err := streamPayload(5 * streamBufBytes / 2)(w); err != nil {
				return err
			}
			return boom
		}, boom, false},
		{"killed mid-stream", kill(), streamPayload(big), ErrInjected, true},
		{"killed mid-stream, callback ignores write errors", kill(),
			func(w io.Writer) error { streamPayload(big)(w); return nil }, ErrInjected, true},
		{"killed mid-stream, callback fails with its own error", kill(),
			func(w io.Writer) error { streamPayload(big)(w); return boom }, boom, true},
	} {
		before := runtime.NumGoroutine()
		seen := &errSeen{}
		_, err := writeFileAtomicFS(tc.fs, path, func(w io.Writer) error {
			seen.w = w
			return tc.write(seen)
		})
		if !errors.Is(err, tc.want) || seen.seen != tc.writeFails {
			t.Fatalf("%s: err = %v, want %v; a Write failed: %t, want %t", tc.name, err, tc.want, seen.seen, tc.writeFails)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("%s: %d goroutines before, %d after", tc.name, before, after)
		}
		onlyOld(tc.name)
	}

	fs := &testFS{FS: osFS{}, failSyncDir: true}
	st, err := writeFileAtomicFS(fs, path, streamPayload(big))
	if !errors.Is(err, errSyncDir) {
		t.Fatalf("failing directory fsync: err = %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want.Bytes()) {
		t.Fatal("failing directory fsync: path does not hold the new content")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failing directory fsync: temp file: %v", err)
	}
	if fs.closes != 1 || st.bytes != big {
		t.Fatalf("failing directory fsync: %d closes, %d bytes; want 1, %d", fs.closes, st.bytes, big)
	}
}

func TestInspectDoesNotRepair(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 4)
	l.Close()
	name := filepath.Join(dir, segName(1))
	sizeBefore, _ := os.Stat(name)
	f, _ := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{1, 2, 3}) // torn garbage
	f.Close()

	rec, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 4 || rec.Truncated == "" || rec.TruncatedBytes != 3 {
		t.Fatalf("inspect = %+v", rec)
	}
	after, _ := os.Stat(name)
	if after.Size() != sizeBefore.Size()+3 {
		t.Fatal("Inspect modified the segment file")
	}
}

// FuzzSegment: a segment file is untrusted after a crash. Whatever it
// holds, Inspect and Open neither panic nor allocate by a length field's
// claim, they agree, a refusal leaves the file as it was, every record
// Replay yields was counted by Open, and a second Open finds the repaired
// log clean.
func FuzzSegment(f *testing.F) {
	clean := append(segHeader(1), record(KindInsert, 1, payload(0))...)
	clean = append(clean, record(KindBarrier, 1, (&Barrier{Gen: 1, Records: 5, Name: CheckpointName(1, 1)}).encode())...)
	clean = append(clean, record(KindDelete, 2, frame.AppendU64(nil, 3))...)
	for _, seed := range [][]byte{clean, clean[:len(clean)-7], oldSegment(1, 1, 2), lyingTail(), gen2Segment(1, 1, 2)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		irec, ierr := Inspect(dir)
		l, rec, err := Open(dir, Options{})
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, 8*uint64(len(data))+1<<20; got > bound {
			t.Fatalf("a %d-byte segment allocated %d bytes, over %d", len(data), got, bound)
		}
		if (ierr == nil) != (err == nil) {
			t.Fatalf("Inspect: %v; Open: %v", ierr, err)
		}
		if err != nil {
			if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
				t.Fatalf("a refused segment changed: %v", err)
			}
			return
		}
		if irec.Records != rec.Records || irec.Truncated != rec.Truncated {
			t.Fatalf("Inspect %+v, Open %+v", irec, rec)
		}
		replayed := 0
		if err := l.Replay(0, func(Kind, uint64, []byte) error { replayed++; return nil }); err != nil {
			t.Fatal(err)
		}
		l.Close()
		barriers := 0
		if rec.Barrier != nil {
			barriers = 1
		}
		if replayed > rec.Records-barriers {
			t.Fatalf("replayed %d records, Open counted %d and a barrier %+v", replayed, rec.Records, rec.Barrier)
		}
		l2, rec2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		l2.Close()
		if rec2.Truncated != "" || rec2.Records != rec.Records {
			t.Fatalf("second Open found %+v after %+v", rec2, rec)
		}
	})
}

func TestBarrierCodec(t *testing.T) {
	b := Barrier{Epoch: 7, Gen: 3, Records: 1234, Name: CheckpointName(7, 3)}
	got, err := decodeBarrier(7, b.encode())
	if err != nil || got != b {
		t.Fatalf("roundtrip = %+v, %v", got, err)
	}
	if _, err := decodeBarrier(7, b.encode()[:10]); err == nil {
		t.Fatal("short barrier payload decoded")
	}
	if !isCheckpointName(b.Name) || isCheckpointName("wal-0000000000000001.seg") {
		t.Fatal("checkpoint name matcher wrong")
	}
}

func TestSegNameRoundtrip(t *testing.T) {
	for _, seq := range []uint64{1, 42, 1 << 40} {
		got, ok := parseSegName(segName(seq))
		if !ok || got != seq {
			t.Fatalf("roundtrip %d → %q → %d, %v", seq, segName(seq), got, ok)
		}
	}
	for _, bad := range []string{"wal-01.seg", "checkpoint-1.ppanns", "wal-0000000000000001.tmp"} {
		if _, ok := parseSegName(bad); ok {
			t.Fatalf("%q parsed as segment", bad)
		}
	}
}

// Dead reports whether a fault has fired.
func (in *Injector) Dead() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dead
}
