package frame

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"
)

// FuzzRunsMatchReference holds the run bodies of this host to the
// element-by-element little-endian loop: runs of float64s and int32s cut
// from the fuzz bytes, written through AppendFloatRun and an Encoder, must
// come out as the loop's bytes, and a Reader and a Decoder must read back
// the same bits, NaN payloads and −0 included. lead bytes written ahead of
// the runs move them across the Encoder's and the Decoder's chunk
// boundary.
func FuzzRunsMatchReference(f *testing.F) {
	var special []byte
	for _, x := range []float64{
		math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff8_dead_beef_0042),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff), -0x1p-1070, math.MaxFloat64,
	} {
		special = binary.LittleEndian.AppendUint64(special, math.Float64bits(x))
	}
	long := make([]byte, streamChunk+8*3+5)
	for i := range long {
		long[i] = byte(i*131 + i>>9)
	}
	f.Add(special, uint16(0))
	f.Add(special, uint16(streamChunk-13))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{}, uint16(streamChunk-1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(streamChunk-4))
	f.Add(long, uint16(0))
	f.Add(long, uint16(3))
	f.Fuzz(func(t *testing.T, raw []byte, lead uint16) {
		floats := make([]float64, len(raw)/8)
		for i := range floats {
			floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		ints := make([]int32, len(raw)/4)
		for i := range ints {
			ints[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		var wantF, wantI []byte
		for _, x := range floats {
			wantF = binary.LittleEndian.AppendUint64(wantF, math.Float64bits(x))
		}
		for _, x := range ints {
			wantI = binary.LittleEndian.AppendUint32(wantI, uint32(x))
		}

		if got := AppendFloatRun([]byte{0xa5}, floats); !bytes.Equal(got, append([]byte{0xa5}, wantF...)) {
			t.Fatalf("AppendFloatRun of %d floats wrote other bytes than the loop", len(floats))
		}
		r := NewReader(wantF)
		sameBits(t, "Reader.FloatRun", r.FloatRun(len(floats)), floats)
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.ByteRun(make([]byte, lead))
		e.FloatRun(floats)
		e.Int32Run(ints)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		want := slices.Concat(make([]byte, lead), wantF, wantI)
		if want = AppendU32(want, crc32.ChecksumIEEE(want)); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("the Encoder's runs (lead %d, %d floats, %d int32s) are not the loop's bytes", lead, len(floats), len(ints))
		}
		d := NewDecoder(&buf)
		d.ByteRun(make([]byte, lead))
		gotF, gotI := make([]float64, len(floats)), make([]int32, len(ints))
		d.FloatRun(gotF)
		d.Int32Run(gotI)
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "Decoder.FloatRun", gotF, floats)
		if !slices.Equal(gotI, ints) {
			t.Fatal("Decoder.Int32Run read back other values")
		}
	})
}

// sameBits fails t unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d floats, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: float %d is %#x, want %#x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
