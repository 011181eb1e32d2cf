package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// streamChunk is the staging size of an Encoder and a Decoder: large
// enough that the CRC and the write or read run once per chunk, small
// enough to stay in cache while a chunk is encoded or decoded.
const streamChunk = 64 << 10

// Encoder writes a stream for a Decoder: the Append functions'
// little-endian primitives and runs, staged in one chunk and covered by a
// running CRC32 (IEEE) of every byte. The first error sticks: later writes
// are dropped and Close returns it. A caller with a check of its own
// records its failure with Fail.
type Encoder struct {
	w   io.Writer
	buf []byte
	crc uint32
	err error
}

// NewEncoder writes to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: make([]byte, 0, streamChunk)}
}

// Fail records err unless an error is already recorded.
func (e *Encoder) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// flush checksums and writes the staged bytes.
func (e *Encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf)
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// next extends the staged bytes by up to n whole size-byte items, flushing
// first when not one fits, and returns the new bytes.
func (e *Encoder) next(n, size int) []byte {
	if cap(e.buf)-len(e.buf) < size {
		e.flush()
	}
	m := min(n, (cap(e.buf)-len(e.buf))/size) * size
	at := len(e.buf)
	e.buf = e.buf[:at+m]
	return e.buf[at:]
}

// U8 writes v.
func (e *Encoder) U8(v uint8) { e.next(1, 1)[0] = v }

// U32 writes v little-endian.
func (e *Encoder) U32(v uint32) { binary.LittleEndian.PutUint32(e.next(1, 4), v) }

// U64 writes v little-endian.
func (e *Encoder) U64(v uint64) { binary.LittleEndian.PutUint64(e.next(1, 8), v) }

// Int writes v as a little-endian int64.
func (e *Encoder) Int(v int) { e.U64(uint64(int64(v))) }

// FloatRun writes v without a count: the reader knows it.
func (e *Encoder) FloatRun(v []float64) {
	for len(v) > 0 {
		p := e.next(len(v), 8)
		putFloats(p, v[:len(p)/8])
		v = v[len(p)/8:]
	}
}

// Int32Run writes v as little-endian int32s without a count.
func (e *Encoder) Int32Run(v []int32) {
	for len(v) > 0 {
		p := e.next(len(v), 4)
		putInt32s(p, v[:len(p)/4])
		v = v[len(p)/4:]
	}
}

// ByteRun writes p without a count.
func (e *Encoder) ByteRun(p []byte) {
	for len(p) > 0 {
		p = p[copy(e.next(len(p), 1), p):]
	}
}

// Close writes the CRC32 of every byte written so far as a little-endian
// uint32 trailer, flushes, and returns the first error. It does not close
// the underlying writer.
func (e *Encoder) Close() error {
	e.flush()
	if e.err == nil {
		_, e.err = e.w.Write(binary.LittleEndian.AppendUint32(nil, e.crc))
	}
	return e.err
}

// Decoder reads a stream an Encoder wrote. The bytes are untrusted: they
// are read a chunk at a time as the primitives ask for them, so a caller
// that grows what it allocates as its runs arrive never sizes anything by
// a count the input merely claims. The first error — a read error, the
// input running out, or a caller's Fail — sticks: every later read leaves
// its destination alone and returns zero, so a decoder checks Err once
// per item it allocates for and once at the end (Done).
type Decoder struct {
	r   io.Reader
	buf []byte // buf[off:] is read from r but not yet decoded
	off int
	sum int // buf[:sum] is already in crc
	crc uint32
	err error
}

// NewDecoder reads from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, buf: make([]byte, 0, streamChunk)}
}

// Err returns the first error.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless an error is already recorded.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// fill makes at least size ≤ streamChunk unread bytes available, reading
// as much input as the chunk holds, and reports whether it could.
func (d *Decoder) fill(size int) bool {
	if d.err != nil {
		return false
	}
	if len(d.buf)-d.off >= size {
		return true
	}
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.buf[d.sum:d.off])
	kept := copy(d.buf[:cap(d.buf)], d.buf[d.off:])
	m, err := io.ReadAtLeast(d.r, d.buf[kept:cap(d.buf)], size-kept)
	d.buf, d.off, d.sum = d.buf[:kept+m], 0, 0
	switch {
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		d.err = fmt.Errorf("%w: input ends %d bytes short of a %d-byte item", errShort, size-kept-m, size)
	case err != nil:
		d.err = err
	}
	return d.err == nil
}

// next consumes up to n whole size-byte items of the buffered input,
// reading more first when not one is buffered, and returns their bytes
// (nil once failed).
func (d *Decoder) next(n, size int) []byte {
	if !d.fill(size) {
		return nil
	}
	m := min(n, (len(d.buf)-d.off)/size) * size
	p := d.buf[d.off : d.off+m]
	d.off += m
	return p
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if p := d.next(1, 1); p != nil {
		return p[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if p := d.next(1, 4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if p := d.next(1, 8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Int reads a little-endian int64 written by Encoder.Int.
func (d *Decoder) Int() int { return int(int64(d.U64())) }

// FloatRun fills dst with the next len(dst) float64s.
func (d *Decoder) FloatRun(dst []float64) {
	for len(dst) > 0 && d.err == nil {
		p := d.next(len(dst), 8)
		getFloats(dst[:len(p)/8], p)
		dst = dst[len(p)/8:]
	}
}

// Int32Run fills dst with the next len(dst) little-endian int32s.
func (d *Decoder) Int32Run(dst []int32) {
	for len(dst) > 0 && d.err == nil {
		p := d.next(len(dst), 4)
		getInt32s(dst[:len(p)/4], p)
		dst = dst[len(p)/4:]
	}
}

// ByteRun fills dst with the next len(dst) bytes.
func (d *Decoder) ByteRun(dst []byte) {
	for len(dst) > 0 {
		p := d.next(len(dst), 1)
		if p == nil {
			return
		}
		dst = dst[copy(dst, p):]
	}
}

// Done reads the CRC32 trailer Encoder.Close wrote and returns the first
// error: the trailer must match every byte decoded before it, and the
// input must end there.
func (d *Decoder) Done() error {
	if !d.fill(4) {
		return d.err
	}
	sum := crc32.Update(d.crc, crc32.IEEETable, d.buf[d.sum:d.off])
	stored := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	d.sum = d.off
	switch {
	case stored != sum:
		d.err = fmt.Errorf("frame: checksum %08x, the bytes sum to %08x: the input is corrupt", stored, sum)
	case d.off < len(d.buf):
		d.err = fmt.Errorf("frame: %d trailing bytes", len(d.buf)-d.off)
	default:
		switch _, err := io.ReadAtLeast(d.r, make([]byte, 1), 1); {
		case err == nil:
			d.err = errors.New("frame: trailing bytes")
		case err != io.EOF:
			d.err = err
		}
	}
	return d.err
}
