package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// payload builds a distinguishable payload for record i.
func payload(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d-payload", i))
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
	l, _, err := Open(dir, Options{SegmentBytes: 128})
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

	l2, rec, err := Open(dir, Options{SegmentBytes: 128})
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
	torn := appendRecord(nil, KindInsert, 99, []byte("lost-to-the-crash"))
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

func TestCorruptRecordMidSegmentDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 30) // several segments
	before := l.Stats()
	l.Close()

	// Flip one payload byte in the middle of the SECOND segment.
	name := filepath.Join(dir, segName(2))
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+recHeaderSize+3] ^= 0x40
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Truncated == "" || !strings.Contains(rec.Truncated, segName(2)) {
		t.Fatalf("expected truncation report naming %s, got %+v", segName(2), rec)
	}
	if rec.DroppedSegments != before.Segments-2 {
		t.Fatalf("dropped %d segments, want %d", rec.DroppedSegments, before.Segments-2)
	}
	// Replay yields the intact prefix: all of segment 1, nothing at or
	// after the corrupt record.
	rows := collect(t, l2, 0)
	if len(rows) >= 30 || len(rows) == 0 {
		t.Fatalf("replayed %d records, want a strict non-empty prefix of 30", len(rows))
	}
	for i, r := range rows {
		if r.epoch != uint64(i+1) {
			t.Fatalf("replay gap at %d: %+v", i, r)
		}
	}
}

func TestCheckpointGCAndRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256, Sync: SyncPolicy{Every: 1}})
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
	if n := len(rec.Barriers); n != 1 || rec.Barriers[n-1] != b.withName() {
		t.Fatalf("recovered barriers = %+v", rec.Barriers)
	}
	got, err := io.ReadAll(mustOpenCheckpoint(t, l2, rec.Barriers[0].Name))
	if err != nil || string(got) != string(blob) {
		t.Fatalf("checkpoint content = %q, %v", got, err)
	}
	rows := collect(t, l2, rec.Barriers[0].Epoch)
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

	// A failing writer must leave the old content and no temp file.
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("content after failed write = %q, want old content", got)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries after failed write, want 1", len(ents))
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
