package core

import (
	"fmt"
	"time"

	"ppanns/internal/frame"
	"ppanns/internal/wal"
)

// WAL payload codec. The wal package frames, checksums and epoch-stamps
// records; core owns what goes inside, one mutation per record, its kind
// the record's kind:
//
//	insert: [id u64] [AppendInsert's payload]
//	delete: [id u64]
//
// in the frame package's little-endian codec. An insert logs only the two
// ciphertexts the owner sent, never a PQ code: replay applies it through
// the live write's own apply, whose row append derives the code from the
// SAP row under the snapshot's codebook. Recovery replays over the
// checkpoint of the last fold, whose codebook is the one the live server
// encoded those inserts under, so a recovered server is bit-identical to
// the never-crashed one, across codebook retrains too.

// appendMutation encodes m as a record payload.
func appendMutation(dst []byte, m mutation) []byte {
	dst = frame.AppendU64(dst, uint64(m.id))
	if m.kind == wal.KindInsert {
		dst = AppendInsert(dst, m.p)
	}
	return dst
}

// parseMutation decodes a record payload of the given kind. The insert
// payload owns its storage. Whether the mutation fits a database is
// snapshot.check's to say.
func parseMutation(kind wal.Kind, b []byte) (mutation, error) {
	r := frame.NewReader(b)
	m := mutation{kind: kind, id: int(r.U64())}
	switch kind {
	case wal.KindInsert:
		m.p = ReadInsert(r)
	case wal.KindDelete:
	default:
		return mutation{}, fmt.Errorf("unexpected record kind %v", kind)
	}
	if err := r.Done(); err != nil {
		return mutation{}, fmt.Errorf("%v payload of %d bytes: %w", kind, len(b), err)
	}
	return m, nil
}

// attachWAL opens a fresh log for a NewServerWith-constructed server and
// seeds it with an initial checkpoint of edb, so the directory is
// recoverable from the first acknowledged write onward.
func (s *Server) attachWAL(edb *EncryptedDatabase, o ServerOptions) error {
	lg, rec, err := wal.Open(o.WALDir, wal.Options{Sync: o.WALSync, FS: o.walFS})
	if err != nil {
		return err
	}
	if rec.Records > 0 { // a barrier is a record too
		lg.Close()
		return fmt.Errorf("core: WAL dir %s already holds a log (%d records); recover it with OpenServer", o.WALDir, rec.Records)
	}
	s.wal = lg
	if err := s.walCheckpoint(edb, 0, 0); err != nil {
		lg.Close()
		return err
	}
	return nil
}

// RecoveryStats describes what OpenServer found in the WAL directory and
// how much it replayed: the newest checkpoint, which recovery anchors on
// alone, the records replayed over it, and any torn-tail repair.
type RecoveryStats struct {
	// Checkpoint identifies the snapshot recovery started from: the
	// newest barrier's.
	Checkpoint      string
	CheckpointEpoch uint64
	CheckpointGen   uint64
	// Replayed is the number of mutation records applied over the
	// checkpoint; Epoch is the server's mutation count afterwards.
	Replayed int
	Epoch    uint64
	// Truncated describes the torn-tail repair performed, empty when the
	// log was clean; TruncatedBytes quantifies it.
	Truncated      string
	TruncatedBytes int64
}

// OpenServer recovers a server from a WAL directory: it repairs the log's
// torn tail, loads the newest barrier's checkpoint, replays every
// acknowledged mutation after it, and resumes logging. The epoch and
// generation are restored, so the replicated tier's epoch-floor contract
// holds across the crash-restart.
//
// The newest checkpoint is the only anchor: writing it removed every older
// snapshot file and every segment it covers. A directory whose newest
// checkpoint does not load is refused, naming the file and why.
//
// Replay takes each record through parse, the epoch-gap check, then the
// live write's own check and apply, so a replayed record cannot take a
// path the live write did not. The log was appended in epoch order under
// the writer mutex, so a gap means lost or reordered records — corruption
// the CRC layer could not see — and recovery fails loudly rather than
// serve a silently diverged database.
func OpenServer(walDir string, o ServerOptions) (s *Server, stats RecoveryStats, err error) {
	lg, rec, err := wal.Open(walDir, wal.Options{Sync: o.WALSync, FS: o.walFS})
	if err != nil {
		return nil, stats, err
	}
	defer func() {
		if err != nil {
			lg.Close()
			s = nil
		}
	}()
	stats.Truncated = rec.Truncated
	stats.TruncatedBytes = rec.TruncatedBytes

	b := rec.Barrier
	switch {
	case b == nil && rec.Records == 0:
		return nil, stats, fmt.Errorf("core: WAL dir %s holds no checkpoint and no log records; create the server with NewServerWith(ServerOptions{WALDir: ...}) first", walDir)
	case b == nil:
		return nil, stats, fmt.Errorf("core: WAL dir %s has a log tail but no usable checkpoint (%d records); the acknowledged writes cannot be anchored — re-clone from a replica", walDir, rec.Records)
	}
	edb, err := loadCheckpoint(lg, b)
	if err != nil {
		return nil, stats, fmt.Errorf("core: WAL dir %s: newest checkpoint %s does not load, so the acknowledged writes after it cannot be anchored — restore the file or re-clone from a replica: %w", walDir, b.Name, err)
	}
	stats.Checkpoint = b.Name
	stats.CheckpointEpoch = b.Epoch
	stats.CheckpointGen = b.Gen

	s = newServer(edb, b.Epoch, b.Gen, o)
	err = lg.Replay(b.Epoch, func(kind wal.Kind, epoch uint64, payload []byte) error {
		cur := s.snap.Load()
		m, err := parseMutation(kind, payload)
		if err == nil && epoch != cur.epoch+1 {
			err = fmt.Errorf("epoch gap: record over state at epoch %d", cur.epoch)
		}
		if err == nil {
			err = cur.check(m)
		}
		if err != nil {
			return fmt.Errorf("core: wal replay at epoch %d: %w", epoch, err)
		}
		s.wmu.Lock()
		s.apply(cur, m)
		s.wmu.Unlock()
		stats.Replayed++
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	stats.Epoch = s.snap.Load().epoch
	s.wal = lg
	s.maybeCompact()
	return s, stats, nil
}

// loadCheckpoint loads b's snapshot file and holds it to the record count
// the barrier states.
func loadCheckpoint(lg *wal.Log, b *wal.Barrier) (*EncryptedDatabase, error) {
	rc, err := lg.OpenCheckpoint(b.Name)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	edb, err := LoadEncryptedDatabase(rc)
	if err != nil {
		return nil, err
	}
	if got := uint64(edb.Len()); got != b.Records {
		return nil, fmt.Errorf("it holds %d records, its barrier recorded %d", got, b.Records)
	}
	return edb, nil
}

// walCheckpoint persists the folded database as the log's new recovery
// base: the PPANNSD8 snapshot goes through the atomic-persist path, a
// barrier record marks it durable, and sealed segments wholly behind it
// are garbage-collected. Called by attachWAL for the initial checkpoint
// and by compactFold with cmu held (checkpoints are serialized);
// concurrent Insert/Delete appends are safe throughout.
func (s *Server) walCheckpoint(edb *EncryptedDatabase, epoch, gen uint64) error {
	b := wal.Barrier{Epoch: epoch, Gen: gen, Records: uint64(edb.Len())}
	if err := s.wal.Checkpoint(b, edb.Save); err != nil {
		return fmt.Errorf("core: wal checkpoint at epoch %d: %w", epoch, err)
	}
	return nil
}

// WALStats summarizes the attached write-ahead log, nil when the server
// runs without one.
type WALStats struct {
	// Dir is the log directory; Policy names the sync policy.
	Dir    string
	Policy string
	// Segments and Bytes size the live log files.
	Segments int
	Bytes    int64
	// Appended and Synced are the per-process LSN watermarks: records
	// appended and records known durable.
	Appended uint64
	Synced   uint64
	// Checkpoint describes the newest recovery base.
	Checkpoint      string
	CheckpointEpoch uint64
	CheckpointGen   uint64
	// CheckpointBytes, CheckpointWrite and CheckpointSync are what this
	// process's newest checkpoint cost (wal.Stats): the snapshot's size,
	// its encode-and-write time and its time to a durable rename. They
	// stay in-process: AppendWALStats does not put them on the wire.
	CheckpointBytes int64
	CheckpointWrite time.Duration
	CheckpointSync  time.Duration
}

// WALStats reports the attached log's shape, or nil without a WAL.
func (s *Server) WALStats() *WALStats {
	if s.wal == nil {
		return nil
	}
	st := s.wal.Stats()
	w := &WALStats{
		Dir:      st.Dir,
		Policy:   st.Sync.String(),
		Segments: st.Segments,
		Bytes:    st.Bytes,
		Appended: st.Appended,
		Synced:   st.Synced,

		CheckpointBytes: st.CheckpointBytes,
		CheckpointWrite: st.CheckpointWrite,
		CheckpointSync:  st.CheckpointSync,
	}
	if st.Barrier != nil {
		w.Checkpoint = st.Barrier.Name
		w.CheckpointEpoch = st.Barrier.Epoch
		w.CheckpointGen = st.Barrier.Gen
	}
	return w
}

// Close releases the server's write-ahead log, syncing everything appended
// so far; a server without a WAL needs no Close. It waits out an in-flight
// background compaction (and its checkpoint) first, then refuses further
// logged writes. Search remains usable after Close; Insert/Delete fail.
func (s *Server) Close() error {
	if s.wal == nil {
		return nil
	}
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.wal.Close()
}

// SaveTo writes the server's flushed database atomically to path — the
// offline-recovery (ppanns-dbtool recover) output path and a convenience
// for operators snapshotting a live server.
func (s *Server) SaveTo(path string) error {
	edb, err := s.Flush()
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(path, edb.Save)
}
