// Package wal implements the per-server write-ahead log behind the serving
// tier's durable write path: records in rotating segment files, each one
// frame envelope (a CRC32C-checked length, kind and epoch around core's
// payload), a configurable sync policy with group commit, and checkpoint
// barriers that bound recovery work and let sealed segments be garbage-
// collected.
//
// The contract with core.Server: every acknowledged Insert/Delete is
// appended (and, per the sync policy, fsynced) before the acknowledgment,
// and recovery = load the newest checkpoint snapshot + replay every record
// with a later epoch. A torn or corrupt tail of the last segment — the
// expected residue of a crash mid-write — is truncated at the last whole
// record, never treated as fatal. Rotation fsyncs a segment before it
// creates the next, so bad bytes in any earlier segment mean acknowledged
// writes were lost: that log is refused, as is a log of another
// generation, before anything in the directory is changed.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ppanns/internal/frame"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// SyncPolicy selects when appended records become durable relative to the
// acknowledgment. The zero value is OS-buffered: appends go to the page
// cache and reach disk on rotation, checkpoint, interval ticks of the OS,
// or Close — fastest, but a crash can lose any acknowledged write since
// the last of those points.
type SyncPolicy struct {
	// Every fsyncs once per Every acknowledged writes. 1 makes every
	// acknowledgment durable (group commit batches concurrent writers
	// into one fsync, so the cost amortizes under load); N > 1 bounds
	// loss to at most N−1 acknowledged writes.
	Every int
	// Interval, when positive, fsyncs from a background ticker instead,
	// bounding loss to one interval of acknowledged writes. Ignored when
	// Every is set.
	Interval time.Duration
}

func (p SyncPolicy) String() string {
	switch {
	case p.Every == 1:
		return "every=1"
	case p.Every > 1:
		return fmt.Sprintf("every=%d", p.Every)
	case p.Interval > 0:
		return fmt.Sprintf("interval=%s", p.Interval)
	default:
		return "os-buffered"
	}
}

// Options configures a log.
type Options struct {
	// Sync is the durability policy (see SyncPolicy).
	Sync SyncPolicy
	// FS overrides the filesystem, for fault injection. Default: the os package.
	FS FS
}

// segmentBytes is the size at which Append seals the active segment and
// starts the next.
const segmentBytes = 16 << 20

// segMeta describes one sealed (or scanned) segment.
type segMeta struct {
	seq      uint64
	name     string
	bytes    int64 // valid bytes, header included
	records  int
	maxEpoch uint64
}

// Recovery reports what Open found and repaired.
type Recovery struct {
	// Segments is the number of surviving segment files.
	Segments int
	// Records is the number of valid records across them.
	Records int
	// Bytes is the total valid segment bytes, headers included.
	Bytes int64
	// Barrier is the newest checkpoint barrier, nil when there is none.
	// Recovery anchors on it alone: the checkpoint that wrote it removed
	// every older snapshot file.
	Barrier *Barrier
	// Truncated describes the tail repair performed, empty when the log
	// was clean.
	Truncated string
	// TruncatedBytes is how many trailing bytes were discarded.
	TruncatedBytes int64
}

// Log is an append-only record log over rotating segment files. Appends
// are serialized internally; Commit implements group commit, so any number
// of goroutines can Append+Commit concurrently and share fsyncs.
type Log struct {
	dir  string
	fs   FS
	opts Options
	// rotateAt is segmentBytes; the package's tests lower it to rotate
	// after a few records.
	rotateAt int64

	mu   sync.Mutex
	cond *sync.Cond
	f    File // active segment
	seq  uint64
	// activeBytes / activeMaxEpoch track the active segment.
	activeBytes    int64
	activeMaxEpoch uint64
	sealed         []segMeta
	// written / synced are monotone per-process LSN watermarks: written
	// counts appended records, synced the highest LSN known durable.
	written uint64
	synced  uint64
	syncing bool // one goroutine is in f.Sync with mu released
	err     error
	closed  bool

	// barrierSeq is the segment holding the newest barrier; GC never
	// removes it or anything after it.
	barrier    *Barrier
	barrierSeq uint64
	// ckptCost is what writing the newest barrier's snapshot cost.
	ckptCost persistStats

	// replaySegs freezes the segment set and valid byte ranges found at
	// Open, so Replay reads exactly the recovered prefix even if appends
	// have started.
	replaySegs []segMeta

	stopTicker chan struct{}
	tickerWG   sync.WaitGroup
}

// Open opens (creating if needed) the log in dir, scanning every segment
// and truncating the last one at its first torn or CRC-failing record
// (or removing it durably, when its header is torn). It returns the log
// positioned for appending plus a Recovery describing what was found. A
// log of another generation, or one with bad bytes before its last
// segment, is refused with the directory untouched.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if opts.FS == nil {
		opts.FS = osFS{}
	}
	fs := opts.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	segs, rec, barrierSeq, err := scanDir(fs, dir, true)
	if err != nil {
		return nil, nil, err
	}

	l := &Log{
		dir:        dir,
		fs:         fs,
		opts:       opts,
		rotateAt:   segmentBytes,
		stopTicker: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	l.replaySegs = segs
	l.barrier, l.barrierSeq = rec.Barrier, barrierSeq

	// Reopen the last segment for appending, or start segment 1.
	if n := len(segs); n > 0 {
		last := segs[n-1]
		f, err := fs.Append(filepath.Join(dir, last.name))
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reopen active segment: %w", err)
		}
		l.f = f
		l.seq = last.seq
		l.activeBytes = last.bytes
		l.activeMaxEpoch = last.maxEpoch
		l.sealed = append(l.sealed, segs[:n-1]...)
	} else {
		if err := l.createSegmentLocked(1); err != nil {
			return nil, nil, err
		}
	}

	if opts.Sync.Every <= 0 && opts.Sync.Interval > 0 {
		l.tickerWG.Add(1)
		go l.intervalSyncer(opts.Sync.Interval)
	}
	return l, rec, nil
}

// Inspect scans the log directory read-only — no repair, no truncation, no
// lock — and reports what a recovery would find. Tooling (ppanns-dbtool
// info) uses it to describe a WAL without mutating it.
func Inspect(dir string) (*Recovery, error) {
	_, rec, _, err := scanDir(osFS{}, dir, false)
	return rec, err
}

// errCorrupt wraps every point where a segment's bytes stop being the log.
var errCorrupt = errors.New("wal: corrupt segment")

// scanDir scans segments in seq order, read-only. Then, with repair=true,
// it truncates the last segment at its first invalid record (removing it
// if its header is invalid) and removes leftover temp files; with
// repair=false it only reports. barrierSeq is the seq of the segment
// holding the newest barrier (0 when none).
func scanDir(fs FS, dir string, repair bool) (segs []segMeta, rec *Recovery, barrierSeq uint64, err error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("wal: list dir: %w", err)
	}
	var segNames, temps []string
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			segNames = append(segNames, n)
		} else if strings.HasSuffix(n, ".tmp") {
			temps = append(temps, n)
		}
	}
	// ReadDir sorts lexically; the fixed-width hex seq makes that seq order.

	rec = &Recovery{}
	cut := int64(-1) // the last segment's valid length, when it is torn
	for i, name := range segNames {
		seq, _ := parseSegName(name)
		size, err := fs.Size(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, 0, fmt.Errorf("wal: stat %s: %w", name, err)
		}
		sm := segMeta{seq: seq, name: name}
		var barrier *Barrier
		sm.bytes, err = readSegment(fs, dir, name, seq, size, func(kind Kind, epoch uint64, p []byte) error {
			if kind == KindBarrier {
				b, _ := decodeBarrier(epoch, p) // readSegment decoded it once
				barrier = &b
			}
			sm.records++
			sm.maxEpoch = max(sm.maxEpoch, epoch)
			return nil
		})
		switch {
		case err == nil:
		case !errors.Is(err, errCorrupt):
			return nil, nil, 0, err
		case i < len(segNames)-1:
			return nil, nil, 0, fmt.Errorf("%w; a later segment exists, so acknowledged writes after this point were lost: refusing to repair the log", err)
		case sm.bytes == 0:
			cut = 0
			rec.Truncated = fmt.Sprintf("segment %s: corrupt header, file dropped", name)
			rec.TruncatedBytes = size
			continue
		default:
			cut = sm.bytes
			rec.Truncated = fmt.Sprintf("segment %s: torn or corrupt record at offset %d, %d trailing bytes truncated",
				name, sm.bytes, size-sm.bytes)
			rec.TruncatedBytes = size - sm.bytes
		}
		segs = append(segs, sm)
		rec.Segments++
		rec.Records += sm.records
		rec.Bytes += sm.bytes
		if barrier != nil {
			rec.Barrier, barrierSeq = barrier, sm.seq
		}
	}
	if !repair {
		return segs, rec, barrierSeq, nil
	}
	for _, n := range temps {
		fs.Remove(filepath.Join(dir, n))
	}
	if cut < 0 {
		return segs, rec, barrierSeq, nil
	}
	// Removing a torn last segment makes the sealed one before it active
	// again; the removal must be durable before anything is appended there,
	// or a crash could bring it back over that segment's new tail.
	last := filepath.Join(dir, segNames[len(segNames)-1])
	if cut > 0 {
		err = fs.Truncate(last, cut)
	} else if err = fs.Remove(last); err == nil {
		err = fs.SyncDir(dir)
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("wal: repair torn %s: %w", filepath.Base(last), err)
	}
	return segs, rec, barrierSeq, nil
}

// readSegment reads the segment file name, at most limit bytes of it: the
// header envelope, then every record, handed to fn in log order. It
// returns the length of the prefix of whole, valid envelopes; where the
// bytes stop being the log before limit, the error wraps errCorrupt and
// names the offset. A segment of another log generation — generation 1's
// magic, or a header envelope stamped with another generation — is
// refused with the way forward: checkpoint an older log with the build
// before this one, open a newer log with the build that wrote it. That
// refusal, a read error and fn's error
// come back as they are, not as errCorrupt, so such a segment is never
// repaired away. A header stamped 0 is what a crash can leave of a segment
// created just before it, zeroed: it is torn, not of another generation.
func readSegment(fs FS, dir, name string, seq uint64, limit int64, fn func(Kind, uint64, []byte) error) (valid int64, err error) {
	f, err := fs.Open(filepath.Join(dir, name))
	if err != nil {
		return 0, fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(io.LimitReader(f, limit), 64<<10)
	refuse := func(gen int) error {
		if gen > logGen {
			return fmt.Errorf("wal: segment %s was written by a newer build, at log generation %d where this build reads %d: open the directory with that build", name, gen, logGen)
		}
		return fmt.Errorf("wal: segment %s was written by log generation %d, which this build does not read: checkpoint with the previous build (ppanns-dbtool recover <dir> <out.ppanns>) and start this build from that database in a fresh directory", name, gen)
	}
	// A generation-1 segment opens with its magic; any later one with an
	// envelope, whose fifth byte is its generation.
	head, _ := br.Peek(len(oldSegMagic))
	if string(head) == oldSegMagic {
		return 0, refuse(1)
	}
	stamped := 0
	if len(head) > 4 {
		stamped = int(head[4])
	}
	er := frame.NewEnvelopeReader(br, logGen)
	for {
		tag, word, p, err := er.Next()
		var bad error
		switch kind := Kind(tag); {
		case valid == 0 && stamped != 0 && errors.Is(err, frame.ErrGeneration):
			return 0, refuse(stamped)
		case err == io.EOF && valid > 0:
			return valid, nil
		case err == io.EOF || err == io.ErrUnexpectedEOF || errors.Is(err, frame.ErrEnvelope):
			bad = err
		case err != nil:
			return valid, fmt.Errorf("wal: read segment %s: %w", name, err)
		case valid == 0:
			if tag != 0 || word != seq || string(p) != segMagic {
				bad = errors.New("not the header of this segment")
			}
		case !kind.valid():
			bad = fmt.Errorf("a record of unknown kind %d", tag)
		case kind == KindBarrier:
			_, bad = decodeBarrier(word, p)
		}
		if bad != nil {
			return valid, fmt.Errorf("%w %s at offset %d: %w", errCorrupt, name, valid, bad)
		}
		if valid > 0 {
			if err := fn(Kind(tag), word, p); err != nil {
				return valid, err
			}
		}
		valid += int64(frame.EnvelopeOverhead + len(p))
	}
}

// createSegmentLocked creates and activates segment seq. Callers hold no
// lock during Open; rotateLocked calls it with mu held — the field writes
// are safe either way because the log is not yet shared (Open) or mu is
// held (rotate).
func (l *Log) createSegmentLocked(seq uint64) error {
	name := segName(seq)
	f, err := l.fs.Create(filepath.Join(l.dir, name))
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", name, err)
	}
	if _, err := f.Write(segHeader(seq)); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header %s: %w", name, err)
	}
	// Make the file name itself durable; the header bytes become durable
	// with the first record fsync.
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	l.f = f
	l.seq = seq
	l.activeBytes = segHeaderSize
	l.activeMaxEpoch = 0
	return nil
}

// rotateLocked seals the active segment (fsync + close) and opens the
// next. Called with mu held; waits out any in-flight group-commit fsync so
// the file is not closed under it.
func (l *Log) rotateLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.poisonLocked(fmt.Errorf("wal: sync segment on rotate: %w", err))
		return l.err
	}
	if err := l.f.Close(); err != nil {
		l.poisonLocked(fmt.Errorf("wal: close sealed segment: %w", err))
		return l.err
	}
	if l.written > l.synced {
		l.synced = l.written
	}
	l.sealed = append(l.sealed, segMeta{
		seq:      l.seq,
		name:     segName(l.seq),
		bytes:    l.activeBytes,
		maxEpoch: l.activeMaxEpoch,
	})
	if err := l.createSegmentLocked(l.seq + 1); err != nil {
		l.poisonLocked(err)
		return l.err
	}
	return nil
}

// poisonLocked records a sticky error: a log that failed a write or fsync
// can no longer promise durability, so every later operation fails fast
// instead of silently acknowledging writes it cannot recover.
func (l *Log) poisonLocked(err error) {
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
}

// Append frames and writes one record to the active segment, returning its
// LSN for Commit. The write lands in the OS buffer; durability is
// Commit's job. Safe for concurrent use.
//
// A payload over frame.MaxLen is refused with an error before anything is
// written; the log stays healthy.
func (l *Log) Append(kind Kind, epoch uint64, payload []byte) (uint64, error) {
	rec, err := frame.AppendEnvelope(make([]byte, 0, frame.EnvelopeOverhead+len(payload)), logGen, byte(kind), epoch,
		func(b []byte) []byte { return append(b, payload...) })
	if err != nil {
		return 0, fmt.Errorf("wal: %s record: %w", kind, err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, ErrClosed
	}
	if l.activeBytes >= l.rotateAt {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := l.f.Write(rec); err != nil {
		l.poisonLocked(fmt.Errorf("wal: append: %w", err))
		return 0, l.err
	}
	l.activeBytes += int64(len(rec))
	if epoch > l.activeMaxEpoch {
		l.activeMaxEpoch = epoch
	}
	l.written++
	return l.written, nil
}

// Commit makes the record at lsn durable per the sync policy: it blocks
// until an fsync covers lsn (SyncEvery), or returns immediately (interval
// and OS-buffered policies), in both cases surfacing any sticky log error.
// Concurrent committers group-commit: one becomes the fsync leader, the
// rest ride the same fsync.
func (l *Log) Commit(lsn uint64) error {
	p := l.opts.Sync
	switch {
	case p.Every == 1:
		return l.syncTo(lsn)
	case p.Every > 1:
		if lsn%uint64(p.Every) == 0 {
			return l.syncTo(lsn)
		}
	}
	l.mu.Lock()
	err := l.err
	l.mu.Unlock()
	return err
}

// Sync forces everything appended so far to disk, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	lsn := l.written
	l.mu.Unlock()
	return l.syncTo(lsn)
}

// syncTo blocks until records up to lsn are durable. Group commit: the
// first waiter becomes leader, captures the current write watermark,
// fsyncs outside the lock, then publishes the new synced watermark —
// covering every record appended before the fsync began, so followers that
// arrived meanwhile usually find their LSN already covered.
func (l *Log) syncTo(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.synced < lsn {
		if l.err != nil {
			return l.err
		}
		if l.closed {
			return ErrClosed
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		f := l.f
		w := l.written
		l.mu.Unlock()
		serr := f.Sync()
		l.mu.Lock()
		l.syncing = false
		if serr != nil {
			l.poisonLocked(fmt.Errorf("wal: fsync: %w", serr))
			return l.err
		}
		if w > l.synced {
			l.synced = w
		}
		l.cond.Broadcast()
	}
	return nil
}

func (l *Log) intervalSyncer(every time.Duration) {
	defer l.tickerWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-l.stopTicker:
			return
		case <-t.C:
			l.mu.Lock()
			lsn, bad := l.written, l.err != nil || l.closed
			l.mu.Unlock()
			if bad {
				return
			}
			l.syncTo(lsn) // errors stick; next Append/Commit surfaces them
		}
	}
}

// Checkpoint durably installs a new recovery base: it writes the snapshot
// via the atomic-persist path (temp + fsync + rename + dir fsync), rotates
// so the barrier starts a fresh segment, appends and fsyncs the barrier
// record, then garbage-collects sealed segments whose records the snapshot
// covers and sweeps superseded snapshot files. If b.Name is empty the
// canonical CheckpointName(epoch, gen) is used. Concurrent Appends are
// safe throughout; Checkpoint calls themselves must be serialized by the
// caller (core's compactor lock does).
//
// On an error no barrier is logged, so recovery still anchors on the
// previous checkpoint. When the error is the directory fsync after the
// rename, the new snapshot file is already in the directory under
// b.Name, not known to be durable; a later checkpoint sweeps it.
func (l *Log) Checkpoint(b Barrier, write func(io.Writer) error) error {
	if b.Name == "" {
		b.Name = CheckpointName(b.Epoch, b.Gen)
	}
	// A closed or poisoned log writes no snapshot file: a fold that starts
	// after Close must leave the directory as Close left it.
	l.mu.Lock()
	err := l.err
	if err == nil && l.closed {
		err = ErrClosed
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	cost, err := writeFileAtomicFS(l.fs, filepath.Join(l.dir, b.Name), write)
	if err != nil {
		return fmt.Errorf("wal: write checkpoint %s: %w", b.Name, err)
	}

	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// Rotate so every pre-barrier record sits in a sealed segment and the
	// barrier opens a fresh one: GC can then reason per whole segment.
	if l.activeBytes > segHeaderSize {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	l.mu.Unlock()

	lsn, err := l.Append(KindBarrier, b.Epoch, b.encode())
	if err != nil {
		return err
	}
	if err := l.syncTo(lsn); err != nil {
		return err
	}

	l.mu.Lock()
	bc := b
	l.barrier = &bc
	l.barrierSeq = l.seq
	l.ckptCost = cost
	// Collect sealed segments fully covered by the snapshot: everything
	// before the barrier's segment whose newest record is ≤ the
	// checkpoint epoch. Segments holding post-checkpoint records (written
	// while the snapshot was being persisted) survive and replay's epoch
	// filter handles their older records.
	var keep, drop []segMeta
	for _, s := range l.sealed {
		if s.seq < l.barrierSeq && s.maxEpoch <= b.Epoch {
			drop = append(drop, s)
		} else {
			keep = append(keep, s)
		}
	}
	l.sealed = keep
	l.mu.Unlock()

	for _, s := range drop {
		l.fs.Remove(filepath.Join(l.dir, s.name)) // best effort
	}
	l.sweepCheckpoints(b.Name)
	return nil
}

// sweepCheckpoints removes superseded snapshot files, keeping keep.
func (l *Log) sweepCheckpoints(keep string) {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, n := range names {
		if n != keep && isCheckpointName(n) {
			l.fs.Remove(filepath.Join(l.dir, n))
		}
	}
}

// OpenCheckpoint opens a snapshot file recorded in a barrier for reading.
func (l *Log) OpenCheckpoint(name string) (io.ReadCloser, error) {
	return l.fs.Open(filepath.Join(l.dir, filepath.Base(name)))
}

// Replay streams every valid mutation record with epoch > afterEpoch, in
// log order, to fn. Barrier records are skipped. The payload slice is
// reused between calls; fn must not retain it. Replay reads exactly the
// byte ranges validated at Open, through the reader Open used (so every
// CRC is checked again), and is deterministic even if appends have since
// started — but the intended sequence is Open → Replay → serve.
func (l *Log) Replay(afterEpoch uint64, fn func(kind Kind, epoch uint64, payload []byte) error) error {
	for _, sm := range l.replaySegs {
		if sm.maxEpoch <= afterEpoch {
			continue
		}
		if _, err := readSegment(l.fs, l.dir, sm.name, sm.seq, sm.bytes, func(kind Kind, epoch uint64, p []byte) error {
			if kind == KindBarrier || epoch <= afterEpoch {
				return nil
			}
			return fn(kind, epoch, p)
		}); err != nil {
			return err
		}
	}
	return nil
}

// Stats is a point-in-time summary of the log, for Server.WALStats and the
// transport Info surface.
type Stats struct {
	// Dir is the log directory; Sync is its durability policy.
	Dir  string
	Sync SyncPolicy
	// Segments is the number of live segment files, active included.
	Segments int
	// Bytes is their total size.
	Bytes int64
	// Appended and Synced are the per-process LSN watermarks.
	Appended uint64
	Synced   uint64
	// Barrier is the newest checkpoint barrier, nil before the first.
	Barrier *Barrier
	// CheckpointBytes, CheckpointWrite and CheckpointSync are what this
	// process's newest checkpoint cost: its snapshot's size, the time to
	// encode and write it (which overlap), and the time from there until
	// its rename was durable. Zero until the process writes one.
	CheckpointBytes int64
	CheckpointWrite time.Duration
	CheckpointSync  time.Duration
}

// Stats reports the log's current shape.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Dir:      l.dir,
		Sync:     l.opts.Sync,
		Segments: len(l.sealed) + 1,
		Bytes:    l.activeBytes,
		Appended: l.written,
		Synced:   l.synced,

		CheckpointBytes: l.ckptCost.bytes,
		CheckpointWrite: l.ckptCost.write,
		CheckpointSync:  l.ckptCost.sync,
	}
	for _, s := range l.sealed {
		st.Bytes += s.bytes
	}
	if l.barrier != nil {
		b := *l.barrier
		st.Barrier = &b
	}
	return st
}

// Err returns the sticky error, if the log has been poisoned by a failed
// write or fsync.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close syncs and closes the active segment and stops the interval syncer.
// Appends after Close fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.closed = true
	close(l.stopTicker)
	for l.syncing {
		l.cond.Wait()
	}
	var ferr error
	if l.err == nil && l.f != nil {
		if serr := l.f.Sync(); serr != nil {
			ferr = fmt.Errorf("wal: sync on close: %w", serr)
		} else if l.written > l.synced {
			l.synced = l.written
		}
		if cerr := l.f.Close(); cerr != nil && ferr == nil {
			ferr = fmt.Errorf("wal: close: %w", cerr)
		}
	} else if l.f != nil {
		l.f.Close()
	}
	if ferr != nil && l.err == nil {
		l.err = ferr
	}
	err := l.err
	l.cond.Broadcast()
	l.mu.Unlock()
	l.tickerWG.Wait()
	return err
}
