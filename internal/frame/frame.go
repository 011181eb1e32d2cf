// Package frame is the one binary codec at every trust boundary: the wire
// protocol (internal/transport), the write-ahead log (internal/wal), the
// key files (dce, dcpe, core's user key) and the database file all write
// little-endian integers, floats, runs and strings in one layout; a float64
// or int32 run is one copy of its memory on a little-endian host, element
// by element on a big-endian one, the same bytes either way. Frames that
// sit in memory whole are built with the Append functions and read with a
// Reader, whose views alias the frame. The wire's messages and the
// log's records travel in one envelope (envelope.go): a length, a
// generation, a tag, a word, the payload and a CRC32C, written by
// AppendEnvelope and read by an EnvelopeReader. The database file, too
// large to hold twice, streams through an Encoder and a Decoder instead:
// the same primitives, staged a chunk at a time, under one CRC32 of every
// byte that the Decoder checks against the Encoder's trailer.
//
// The bytes a Reader, an EnvelopeReader or a Decoder decodes are untrusted
// — they come from the cloud server, from a client, or from a file after a
// crash. A Reader checks every length against the bytes that remain and
// against MaxLen before anything is allocated; an EnvelopeReader and a
// Decoder cannot see the bytes ahead, so they (and a Decoder's callers)
// grow what they allocate as the bytes arrive. Either way a lying length
// fails with an error; it never sizes an allocation. The layouts
// themselves are deliberately dumb (no varints): each caller documents its
// own, and sizes that follow from a header it has already checked are read
// without a count.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// MaxLen is the hard limit on one length: an envelope's payload, one count
// inside it, one run of a key file. 64 MiB holds a d=960 DCE key's largest
// matrix (15 MiB) and a merge answer of ≈1 000 d=960 records.
const MaxLen = 64 << 20

// errShort is the error of a Reader that ran out of bytes.
var errShort = errors.New("frame: truncated")

// AppendU8 appends v.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendInt appends v as a little-endian int64.
func AppendInt(b []byte, v int) []byte { return AppendU64(b, uint64(int64(v))) }

// AppendF64 appends v's IEEE-754 bits little-endian.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendFloatRun appends v without a count: the reader knows it.
func AppendFloatRun(b []byte, v []float64) []byte {
	b = grow(b, 8*len(v))
	putFloats(b[len(b):len(b)+8*len(v)], v)
	return b[:len(b)+8*len(v)]
}

// AppendFloats appends [count u32][float64 × count].
func AppendFloats(b []byte, v []float64) []byte {
	return AppendFloatRun(AppendU32(b, uint32(len(v))), v)
}

// AppendInts appends [count u32][int64 × count].
func AppendInts(b []byte, v []int) []byte {
	b = grow(AppendU32(b, uint32(len(v))), 8*len(v))
	for _, x := range v {
		b = AppendInt(b, x)
	}
	return b
}

// AppendString appends [count u32][bytes].
func AppendString(b []byte, s string) []byte { return append(AppendU32(b, uint32(len(s))), s...) }

// grow makes room for n more bytes in one step.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		b = append(make([]byte, 0, 2*cap(b)+n), b...)
	}
	return b
}

// Reader decodes a byte slice. The first error sticks: every later read
// returns a zero value, so a decoder reads its whole layout and checks Err
// (or Done) once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads b. Views it returns (Bytes) alias b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first error.
func (r *Reader) Err() error { return r.err }

// Done returns the first error, or an error if bytes remain: every layout
// is read to its end.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("frame: %d trailing bytes", len(r.b))
	}
	return r.err
}

// Fail records err unless an error is already recorded. Decoders use it
// for their own checks so one error reports the first problem.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take returns the next n bytes, or nil once failed.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = fmt.Errorf("%w: %d bytes left, want %d", errShort, len(r.b), n)
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Int reads a little-endian int64 written by AppendInt.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// F64 reads one float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// count reads a u32 count of size-byte items and holds it to MaxLen and
// to the bytes that remain, so the caller may allocate count items.
func (r *Reader) count(size int) int {
	n := int(r.U32())
	if !r.Want(n, size) {
		return 0
	}
	return n
}

// Want reports whether n items of size bytes are within MaxLen and the
// bytes that remain, and fails the reader if they are not: a decoder
// asks before it allocates n items. It divides rather than multiplies,
// so no n overflows it.
func (r *Reader) Want(n, size int) bool {
	switch {
	case r.err != nil:
	case n < 0 || (size > 0 && n > MaxLen/size):
		r.err = fmt.Errorf("frame: %d %d-byte items exceed the %d-byte limit", n, size, MaxLen)
	case size > 0 && n > len(r.b)/size:
		r.err = fmt.Errorf("%w: %d %d-byte items, %d bytes left", errShort, n, size, len(r.b))
	}
	return r.err == nil
}

// FloatRun reads n float64s into a fresh slice (nil for n == 0). n comes
// from a header the caller has checked, and is held to MaxLen and to the
// bytes that remain all the same before anything is allocated.
func (r *Reader) FloatRun(n int) []float64 {
	if !r.Want(n, 8) || n == 0 {
		return nil
	}
	v := make([]float64, n)
	getFloats(v, r.take(8*n))
	return v
}

// Floats reads [count u32][float64 × count] (nil for count 0).
func (r *Reader) Floats() []float64 { return r.FloatRun(r.count(8)) }

// Ints reads [count u32][int64 × count] (nil for count 0).
func (r *Reader) Ints() []int {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = r.Int()
	}
	return v
}

// Bytes reads [count u32][bytes] as a view into the input (nil for count
// 0); copy it to retain it past the input's life.
func (r *Reader) Bytes() []byte {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	return r.take(n)
}

// String reads [count u32][bytes] as a string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Magic reads len(want) bytes and reports whether they are want.
func (r *Reader) Magic(want string) bool {
	p := r.take(len(want))
	return p != nil && string(p) == want
}
