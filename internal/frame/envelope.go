package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// An envelope is one self-delimiting, self-checking message:
//
//	[len u32][gen u8][tag u8][word u64][payload: len bytes][crc32c u32]
//
// little-endian, the CRC (Castagnoli) over everything before it. gen is
// the generation of the layout inside — a reader refuses every other one —
// and tag and word are the caller's: on the wire the op and the call's
// seq, in the write-ahead log the record kind and its epoch. The same
// bytes serve both, so a log record crosses the wire as it lies on disk.

// EnvelopeOverhead is the bytes an envelope adds to its payload.
const EnvelopeOverhead = envelopeHeader + 4

const envelopeHeader = 4 + 1 + 1 + 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrEnvelope wraps every refusal of an envelope's own bytes: a generation
// other than the reader's, a length over MaxLen or a checksum mismatch.
// The stream is then at no trusted boundary.
var ErrEnvelope = errors.New("frame: envelope refused")

// ErrGeneration wraps the refusal of an envelope of another generation.
var ErrGeneration = fmt.Errorf("%w: generation mismatch", ErrEnvelope)

// AppendEnvelope appends one envelope to b: the header, the payload pay
// appends, and the CRC. A payload over MaxLen is refused: b comes back as
// it was, with an error.
func AppendEnvelope(b []byte, gen, tag byte, word uint64, pay func([]byte) []byte) ([]byte, error) {
	at := len(b)
	b = pay(AppendU64(append(b, 0, 0, 0, 0, gen, tag), word))
	n := len(b) - at - envelopeHeader
	if n > MaxLen {
		return b[:at], fmt.Errorf("frame: a %d-byte payload exceeds the %d-byte limit", n, MaxLen)
	}
	binary.LittleEndian.PutUint32(b[at:], uint32(n))
	return AppendU32(b, crc32.Checksum(b[at:], castagnoli)), nil
}

// EnvelopeReader reads the envelopes of one stream of one generation,
// reusing one buffer. The bytes are untrusted: the generation and then the
// length are checked before anything past the header is read, and the
// buffer grows only as the payload's bytes arrive, so a length that lies
// costs at most about twice what the stream really holds.
type EnvelopeReader struct {
	r   *bufio.Reader
	gen byte
	buf []byte
}

// NewEnvelopeReader reads envelopes of generation gen from r, through r
// itself when it is a bufio.Reader.
func NewEnvelopeReader(r io.Reader, gen byte) *EnvelopeReader {
	return &EnvelopeReader{r: bufio.NewReader(r), gen: gen, buf: make([]byte, 0, envelopeHeader)}
}

// Next reads one envelope and returns its tag, word and payload; the
// payload is valid until the next call. A stream that ends between
// envelopes returns io.EOF, one that ends inside an envelope
// io.ErrUnexpectedEOF, and a refused envelope an error wrapping
// ErrEnvelope, with the tag and word of its header.
func (er *EnvelopeReader) Next() (tag byte, word uint64, payload []byte, err error) {
	buf := er.buf[:envelopeHeader]
	if _, err := io.ReadFull(er.r, buf); err != nil {
		return 0, 0, nil, err
	}
	n, gen := int(binary.LittleEndian.Uint32(buf)), buf[4]
	tag, word = buf[5], binary.LittleEndian.Uint64(buf[6:])
	switch {
	case gen != er.gen:
		return tag, word, nil, fmt.Errorf("%w: stamped generation %d, this reader speaks generation %d", ErrGeneration, gen, er.gen)
	case n > MaxLen:
		return tag, word, nil, fmt.Errorf("%w: its header claims %d bytes, over the %d-byte limit", ErrEnvelope, n, MaxLen)
	}
	end := envelopeHeader + n + 4
	for len(buf) < end {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(end-len(buf), max(len(buf), 64<<10)))
		}
		m := min(end, cap(buf))
		if _, err := io.ReadFull(er.r, buf[len(buf):m]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return tag, word, nil, err
		}
		buf = buf[:m]
	}
	er.buf = buf
	if stored, sum := binary.LittleEndian.Uint32(buf[end-4:]), crc32.Checksum(buf[:end-4], castagnoli); stored != sum {
		return tag, word, nil, fmt.Errorf("%w: checksum %08x, the bytes sum to %08x", ErrEnvelope, stored, sum)
	}
	return tag, word, buf[envelopeHeader : end-4], nil
}
