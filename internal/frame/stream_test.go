package frame

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// streamSample writes one of every primitive, with runs long enough to
// cross several chunk boundaries, and returns the bytes and the runs.
func streamSample(t *testing.T) ([]byte, []float64, []int32, []byte) {
	t.Helper()
	floats := make([]float64, 3*streamChunk/8+5)
	ints := make([]int32, streamChunk/4+3)
	raw := make([]byte, streamChunk+7)
	for i := range floats {
		floats[i] = float64(i) * -1.25
	}
	for i := range ints {
		ints[i] = int32(i) - 9
	}
	for i := range raw {
		raw[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.U8(7)
	e.U32(1 << 31)
	e.FloatRun(floats)
	e.U64(math.MaxUint64)
	e.Int32Run(ints)
	e.Int(-3)
	e.ByteRun(raw)
	e.FloatRun([]float64{math.Inf(-1)})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), floats, ints, raw
}

// TestStreamRoundTrip: what an Encoder writes is the Append functions'
// layout plus a CRC32 trailer of it, and a Decoder reads it back as it
// was — also when the input arrives one byte per Read.
func TestStreamRoundTrip(t *testing.T) {
	b, floats, ints, raw := streamSample(t)
	want := AppendU32(AppendU8(nil, 7), 1<<31)
	want = AppendFloatRun(want, floats)
	want = AppendU64(want, math.MaxUint64)
	for _, v := range ints {
		want = AppendU32(want, uint32(v))
	}
	want = AppendInt(want, -3)
	want = append(want, raw...)
	want = AppendFloatRun(want, []float64{math.Inf(-1)})
	want = AppendU32(want, crc32.ChecksumIEEE(want))
	if !bytes.Equal(b, want) {
		t.Fatalf("the encoder wrote %d bytes unlike the Append layout's %d", len(b), len(want))
	}
	for _, r := range []io.Reader{bytes.NewReader(b), iotest.OneByteReader(bytes.NewReader(b))} {
		d := NewDecoder(r)
		u8, u32 := d.U8(), d.U32()
		gotF := make([]float64, len(floats))
		d.FloatRun(gotF)
		u64 := d.U64()
		gotI := make([]int32, len(ints))
		d.Int32Run(gotI)
		i := d.Int()
		gotB := make([]byte, len(raw))
		d.ByteRun(gotB)
		last := make([]float64, 1)
		d.FloatRun(last)
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
		if u8 != 7 || u32 != 1<<31 || u64 != math.MaxUint64 || i != -3 || !math.IsInf(last[0], -1) ||
			!slices.Equal(gotF, floats) || !slices.Equal(gotI, ints) || !bytes.Equal(gotB, raw) {
			t.Fatal("the decoder read back other values")
		}
	}
}

// TestStreamRefusals: a flipped byte anywhere — the trailer included —
// fails Done; so do a short input, bytes past the trailer and a reader's
// own error, and the first error sticks.
func TestStreamRefusals(t *testing.T) {
	b, floats, ints, raw := streamSample(t)
	read := func(r io.Reader) error {
		d := NewDecoder(r)
		d.U8()
		d.U32()
		d.FloatRun(make([]float64, len(floats)))
		d.U64()
		d.Int32Run(make([]int32, len(ints)))
		d.Int()
		d.ByteRun(make([]byte, len(raw)))
		d.FloatRun(make([]float64, 1))
		return d.Done()
	}
	for _, at := range []int{0, 5, 100, streamChunk - 1, streamChunk, 2*streamChunk + 3, len(b) - 5, len(b) - 1} {
		bad := slices.Clone(b)
		bad[at] ^= 0x10
		if err := read(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("byte %d flipped: %v, want a checksum error", at, err)
		}
	}
	broken := errors.New("disk on fire")
	for _, c := range []struct {
		name string
		r    io.Reader
		want string
	}{
		{"truncated in a run", bytes.NewReader(b[:len(b)/2]), "truncated"},
		{"truncated in the trailer", bytes.NewReader(b[:len(b)-2]), "truncated"},
		{"trailing byte", bytes.NewReader(append(slices.Clone(b), 0)), "trailing"},
		{"trailing chunk", io.MultiReader(bytes.NewReader(b), bytes.NewReader(make([]byte, 2*streamChunk))), "trailing"},
		{"reader error", io.MultiReader(bytes.NewReader(b[:100]), iotest.ErrReader(broken)), broken.Error()},
	} {
		if err := read(c.r); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error containing %q", c.name, err, c.want)
		}
	}
	d := NewDecoder(bytes.NewReader(b))
	d.Fail(broken)
	if d.U64() != 0 || d.Done() != broken {
		t.Error("a decoder kept reading past its first error")
	}
	e := NewEncoder(iotest.TruncateWriter(io.Discard, 0))
	e.Fail(broken)
	e.FloatRun(floats)
	if err := e.Close(); err != broken {
		t.Errorf("Close = %v, want the first error", err)
	}
}

// TestEncoderDoesNotAllocate: once built, an Encoder writes its
// primitives and runs with no allocation.
func TestEncoderDoesNotAllocate(t *testing.T) {
	e := NewEncoder(io.Discard)
	floats, ints := make([]float64, 1000), make([]int32, 33)
	if allocs := testing.AllocsPerRun(100, func() {
		e.Int(len(ints))
		e.Int32Run(ints)
		e.FloatRun(floats)
		e.U8(1)
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per run", allocs)
	}
}
