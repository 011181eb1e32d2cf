package frame

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

func envelope(t *testing.T, gen, tag byte, word uint64, payload string) []byte {
	t.Helper()
	b, err := AppendEnvelope(nil, gen, tag, word, func(b []byte) []byte { return append(b, payload...) })
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEnvelopeRoundTrip: a stream of envelopes reads back tag, word and
// payload in order, ends with io.EOF between envelopes and with
// io.ErrUnexpectedEOF inside one.
func TestEnvelopeRoundTrip(t *testing.T) {
	b := append(envelope(t, 3, 1, 1<<40, "first"), envelope(t, 3, 0xff, 0, "")...)
	if len(b) != 2*EnvelopeOverhead+len("first") {
		t.Fatalf("%d bytes", len(b))
	}
	er := NewEnvelopeReader(bytes.NewReader(b), 3)
	for _, want := range []struct {
		tag  byte
		word uint64
		p    string
	}{{1, 1 << 40, "first"}, {0xff, 0, ""}} {
		tag, word, p, err := er.Next()
		if err != nil || tag != want.tag || word != want.word || string(p) != want.p {
			t.Fatalf("read %d %d %q %v, want %+v", tag, word, p, err, want)
		}
	}
	if _, _, _, err := er.Next(); err != io.EOF {
		t.Fatalf("at the end: %v", err)
	}
	er = NewEnvelopeReader(bytes.NewReader(b[:len(b)-1]), 3)
	if _, _, _, err := er.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := er.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("a torn envelope: %v", err)
	}
}

// TestEnvelopeRefusals: another generation, a length over MaxLen and a
// flipped bit are each refused with ErrEnvelope and the header's tag and
// word; the oversized claim allocates nothing near its size.
func TestEnvelopeRefusals(t *testing.T) {
	good := envelope(t, 3, 4, 5, "payload")
	flipped := bytes.Clone(good)
	flipped[envelopeHeader+2] ^= 1
	huge := append(AppendU32(nil, MaxLen+1), good[4:]...)
	for _, c := range []struct {
		name, in, want string
		gen            bool
	}{
		{"generation", string(envelope(t, 2, 4, 5, "payload")), "stamped generation 2, this reader speaks generation 3", true},
		{"length", string(huge), "over the 67108864-byte limit", false},
		{"checksum", string(flipped), "checksum", false},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tag, word, _, err := NewEnvelopeReader(strings.NewReader(c.in), 3).Next()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrEnvelope) || errors.Is(err, ErrGeneration) != c.gen || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v", c.name, err)
		}
		if tag != 4 || word != 5 {
			t.Errorf("%s: header tag %d word %d", c.name, tag, word)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: refusing allocated %d bytes", c.name, got)
		}
	}
	if b, err := AppendEnvelope([]byte("kept"), 3, 0, 0, func(b []byte) []byte { return append(b, make([]byte, MaxLen+1)...) }); err == nil || string(b) != "kept" {
		t.Fatalf("an oversized payload: %q…, %v", b[:min(len(b), 8)], err)
	}
}
