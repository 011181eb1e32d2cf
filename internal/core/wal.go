package core

import (
	"fmt"

	"ppanns/internal/frame"
	"ppanns/internal/wal"
)

// WAL payload codecs. The wal package frames, checksums and epoch-stamps
// records; core owns what goes inside:
//
//	insert: [id u64] [AppendInsert's payload]
//	delete: [id u64]
//
// in the frame package's little-endian codec. An insert logs only the two
// ciphertexts the owner sent, never a PQ code: replay appends them through
// the same row append as the live insert, which derives the code from the
// SAP row under the snapshot's codebook. Recovery replays over the
// checkpoint of the last fold, whose codebook is the one the live server
// encoded those inserts under, so a recovered server is bit-identical to
// the never-crashed one, across codebook retrains too.

// appendInsertPayload encodes one insert record payload.
func appendInsertPayload(dst []byte, id uint64, p *InsertPayload) []byte {
	return AppendInsert(frame.AppendU64(dst, id), p)
}

// parseInsertPayload decodes an insert record payload. The SAP vector and
// ciphertext own their storage.
func parseInsertPayload(b []byte) (id uint64, p *InsertPayload, err error) {
	r := frame.NewReader(b)
	id = r.U64()
	p = ReadInsert(r)
	if r.Err() == nil && (p == nil || p.DCE == nil) {
		r.Fail(fmt.Errorf("no ciphertext"))
	}
	if err := r.Done(); err != nil {
		return 0, nil, fmt.Errorf("core: wal insert payload: %w", err)
	}
	return id, p, nil
}

func appendDeletePayload(dst []byte, id uint64) []byte {
	return frame.AppendU64(dst, id)
}

func parseDeletePayload(p []byte) (uint64, error) {
	r := frame.NewReader(p)
	id := r.U64()
	if err := r.Done(); err != nil {
		return 0, fmt.Errorf("core: wal delete payload of %d bytes, want 8: %w", len(p), err)
	}
	return id, nil
}

// walLogOptions maps the server options onto the wal package's.
func walLogOptions(o ServerOptions) wal.Options {
	return wal.Options{
		Sync: o.WALSync,
		FS:   o.walFS,
	}
}

// attachWAL opens a fresh log for a NewServerWith-constructed server and
// seeds it with an initial checkpoint of edb, so the directory is
// recoverable from the first acknowledged write onward.
func (s *Server) attachWAL(edb *EncryptedDatabase, o ServerOptions) error {
	lg, rec, err := wal.Open(o.WALDir, walLogOptions(o))
	if err != nil {
		return err
	}
	if rec.Records > 0 || len(rec.Barriers) > 0 {
		lg.Close()
		return fmt.Errorf("core: WAL dir %s already holds a log (%d records, %d checkpoints); recover it with OpenServer", o.WALDir, rec.Records, len(rec.Barriers))
	}
	b := wal.Barrier{Epoch: 0, Gen: 0, Records: uint64(edb.DCE.Len())}
	if err := lg.Checkpoint(b, edb.Save); err != nil {
		lg.Close()
		return fmt.Errorf("core: writing initial checkpoint: %w", err)
	}
	s.wal = lg
	s.walPolicy = o.WALSync
	return nil
}

// RecoveryStats describes what OpenServer found in the WAL directory and
// how much it replayed.
type RecoveryStats struct {
	// Checkpoint identifies the snapshot recovery started from.
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
	// SkippedCheckpoints counts barrier records whose snapshot file was
	// missing or unreadable (e.g. a crash between snapshot rename and
	// barrier append can never cause this, but a manually damaged dir
	// can); recovery fell back to an older checkpoint.
	SkippedCheckpoints int
}

// OpenServer recovers a server from a WAL directory: it repairs the log's
// torn tail, loads the newest usable checkpoint snapshot, replays every
// acknowledged mutation after it, and resumes logging. The epoch and
// generation are restored, so the replicated tier's epoch-floor contract
// holds across the crash-restart.
func OpenServer(walDir string, o ServerOptions) (*Server, RecoveryStats, error) {
	var stats RecoveryStats
	lg, rec, err := wal.Open(walDir, walLogOptions(o))
	if err != nil {
		return nil, stats, err
	}
	stats.Truncated = rec.Truncated
	stats.TruncatedBytes = rec.TruncatedBytes

	// Newest barrier whose snapshot file is present and loadable wins.
	// loadErr keeps the refusal of the last checkpoint that failed to load,
	// so a directory none of whose checkpoints loads says why.
	var edb *EncryptedDatabase
	var from *wal.Barrier
	var loadErr error
	for i := len(rec.Barriers) - 1; i >= 0 && edb == nil; i-- {
		b := rec.Barriers[i]
		rc, oerr := lg.OpenCheckpoint(b.Name)
		if oerr != nil {
			stats.SkippedCheckpoints++
			continue
		}
		loaded, lerr := LoadEncryptedDatabase(rc)
		rc.Close()
		if lerr != nil {
			stats.SkippedCheckpoints++
			loadErr = lerr
			continue
		}
		if got := uint64(loaded.DCE.Len()); got != b.Records {
			lg.Close()
			return nil, stats, fmt.Errorf("core: checkpoint %s holds %d records, barrier recorded %d", b.Name, got, b.Records)
		}
		edb = loaded
		from = &rec.Barriers[i]
	}
	if edb == nil {
		lg.Close()
		if rec.Records == 0 && len(rec.Barriers) == 0 {
			return nil, stats, fmt.Errorf("core: WAL dir %s holds no checkpoint and no log records; create the server with NewServerWith(ServerOptions{WALDir: ...}) first", walDir)
		}
		err := fmt.Errorf("core: WAL dir %s has a log tail but no usable checkpoint (%d records, %d unusable barriers); the acknowledged writes cannot be anchored — restore the checkpoint file or re-clone from a replica", walDir, rec.Records, stats.SkippedCheckpoints)
		if loadErr != nil {
			err = fmt.Errorf("%w: %w", err, loadErr)
		}
		return nil, stats, err
	}
	stats.Checkpoint = from.Name
	stats.CheckpointEpoch = from.Epoch
	stats.CheckpointGen = from.Gen

	if o.CompactAt == 0 {
		o.CompactAt = DefaultCompactAt
	}
	s := &Server{compactAt: o.CompactAt}
	s.snap.Store(&snapshot{
		edb:    edb,
		frozen: edb.DCE.Len(),
		epoch:  from.Epoch,
		gen:    from.Gen,
	})

	// Replay acknowledged mutations over the checkpoint, asserting epoch
	// contiguity: the log was appended in epoch order under the writer
	// mutex, so any gap means lost or reordered records — corruption the
	// CRC layer could not see — and recovery must fail loudly rather than
	// serve a silently diverged database.
	err = lg.Replay(from.Epoch, func(kind wal.Kind, epoch uint64, payload []byte) error {
		cur := s.snap.Load()
		if epoch != cur.epoch+1 {
			return fmt.Errorf("core: wal replay epoch gap: record at epoch %d over state at epoch %d", epoch, cur.epoch)
		}
		switch kind {
		case wal.KindInsert:
			id, p, perr := parseInsertPayload(payload)
			if perr != nil {
				return perr
			}
			if want := uint64(cur.edb.DCE.Len()); id != want {
				return fmt.Errorf("core: wal replay: insert record for id %d, next id is %d", id, want)
			}
			if err := cur.checkInsert(p); err != nil {
				return fmt.Errorf("core: wal replay at epoch %d: %w", epoch, err)
			}
			s.wmu.Lock()
			s.publishInsert(cur, p)
			s.wmu.Unlock()
		case wal.KindDelete:
			id, perr := parseDeletePayload(payload)
			if perr != nil {
				return perr
			}
			pos := int(id)
			if err := cur.checkDelete(pos); err != nil {
				return fmt.Errorf("core: wal replay at epoch %d: %w", epoch, err)
			}
			s.wmu.Lock()
			s.publishDelete(cur, pos)
			s.wmu.Unlock()
		default:
			return fmt.Errorf("core: wal replay: unexpected record kind %v", kind)
		}
		stats.Replayed++
		return nil
	})
	if err != nil {
		lg.Close()
		return nil, stats, err
	}
	stats.Epoch = s.snap.Load().epoch

	s.wal = lg
	s.walPolicy = o.WALSync
	s.maybeCompact()
	return s, stats, nil
}

// walCheckpoint persists the folded database as the log's new recovery
// base: the PPANNSD7 snapshot goes through the atomic-persist path, a
// barrier record marks it durable, and sealed segments wholly behind it
// are garbage-collected. Called by compactFold with cmu held (checkpoints
// are serialized); concurrent Insert/Delete appends are safe throughout.
func (s *Server) walCheckpoint(edb *EncryptedDatabase, epoch, gen uint64) error {
	b := wal.Barrier{Epoch: epoch, Gen: gen, Records: uint64(edb.DCE.Len())}
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
}

// WALStats reports the attached log's shape, or nil without a WAL.
func (s *Server) WALStats() *WALStats {
	if s.wal == nil {
		return nil
	}
	st := s.wal.Stats()
	w := &WALStats{
		Dir:      st.Dir,
		Policy:   s.walPolicy.String(),
		Segments: st.Segments,
		Bytes:    st.Bytes,
		Appended: st.Appended,
		Synced:   st.Synced,
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
