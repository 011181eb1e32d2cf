package wal

import (
	"fmt"

	"ppanns/internal/frame"
)

// Kind tags a log record.
type Kind uint8

const (
	// KindInsert is an acknowledged insert: the encrypted payload the
	// server committed to its delta tier (SAP vector and DCE ciphertext
	// record). The wal package treats the payload as opaque bytes; core
	// owns the codec.
	KindInsert Kind = 1
	// KindDelete is an acknowledged tombstone.
	KindDelete Kind = 2
	// KindBarrier marks a durable checkpoint: every mutation with epoch
	// ≤ the record's epoch is captured by the named snapshot file, so
	// recovery replays only records strictly after it.
	KindBarrier Kind = 3
)

func (k Kind) valid() bool { return k >= KindInsert && k <= KindBarrier }

// String names the kind for logs and tooling.
func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	case KindBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Segment files are named wal-<seq>.seg and hold a stream of frame
// envelopes of generation logGen. The first is the segment header: tag 0,
// the word the segment's sequence number — cross-checked against the file
// name, so a misrenamed or half-created file reads as corrupt rather than
// splicing foreign records into the log — and the payload segMagic. Every
// later envelope is one record: the tag its Kind, the word its epoch, the
// payload core's. The CRC covers the header fields and the payload, so a
// torn tail, a bit flip or a lying length fails it (or the length bound
// before it) and recovery truncates at the record boundary. The epoch
// lives in the envelope rather than the payload so the log can filter
// replay and garbage-collect segments without parsing payloads.
const (
	logGen        = 3
	segMagic      = "PPWALSG3"
	segHeaderSize = int64(frame.EnvelopeOverhead + len(segMagic))

	// oldSegMagic opens every segment of log generation 1, which predates
	// the envelope. Such a log, like one of generation 2 (whose header is
	// an envelope of that generation), is refused, never read as a torn
	// header and removed.
	oldSegMagic = "PPWALSG1"
)

func segName(seq uint64) string { return fmt.Sprintf("wal-%016x.seg", seq) }

func parseSegName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "wal-%016x.seg", &seq); err != nil {
		return 0, false
	}
	return seq, name == segName(seq)
}

func segHeader(seq uint64) []byte {
	h, _ := frame.AppendEnvelope(nil, logGen, 0, seq, func(b []byte) []byte { return append(b, segMagic...) })
	return h
}

// Barrier describes a checkpoint: the epoch and generation of the snapshot
// and the snapshot's file name inside the log directory. Recovery loads
// the newest barrier's snapshot and replays records with epoch >
// Barrier.Epoch on top of it.
type Barrier struct {
	// Epoch is the server mutation counter captured by the snapshot.
	Epoch uint64
	// Gen is the compaction generation of the snapshot.
	Gen uint64
	// Records is the id-space size (Len) of the snapshot, recorded for
	// tooling and cross-checks.
	Records uint64
	// Name is the snapshot file's name within the log directory.
	Name string
}

// CheckpointName is the canonical snapshot file name for a checkpoint at
// the given epoch and generation.
func CheckpointName(epoch, gen uint64) string {
	return fmt.Sprintf("checkpoint-%020d.%d.ppanns", epoch, gen)
}

func isCheckpointName(name string) bool {
	var e, g uint64
	if _, err := fmt.Sscanf(name, "checkpoint-%020d.%d.ppanns", &e, &g); err != nil {
		return false
	}
	return name == CheckpointName(e, g)
}

// encode serializes the barrier payload (the epoch rides in the envelope):
// [Gen u64][Records u64][Name: count u32, bytes].
func (b *Barrier) encode() []byte {
	return frame.AppendString(frame.AppendU64(frame.AppendU64(nil, b.Gen), b.Records), b.Name)
}

func decodeBarrier(epoch uint64, p []byte) (Barrier, error) {
	r := frame.NewReader(p)
	b := Barrier{Epoch: epoch, Gen: r.U64(), Records: r.U64(), Name: r.String()}
	if err := r.Done(); err != nil {
		return Barrier{}, fmt.Errorf("barrier payload: %w", err)
	}
	return b, nil
}
