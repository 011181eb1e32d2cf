package pq

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ppanns/internal/frame"
)

// saveStream is the stream an Encoder writes around s's section: the
// section, then the CRC32 trailer.
func saveStream(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := frame.NewEncoder(&buf)
	s.Save(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadStream reads a whole stream: the section for a database of n
// records of dimension dim, then the trailer.
func loadStream(b []byte, dim, n int) (*Store, error) {
	d := frame.NewDecoder(bytes.NewReader(b))
	s, err := Load(d, dim, n)
	if err == nil {
		err = d.Done()
	}
	return s, err
}

// sealed appends a trailer that matches section, so a patched section
// reaches Load's own checks instead of failing the checksum.
func sealed(section []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clone(section), crc32.ChecksumIEEE(section))
}

// storeHeader is a section header: m, k, TrainedOn and Seed.
func storeHeader(m, k, trainedOn int64) []byte {
	var b []byte
	for _, v := range []int64{m, k, trainedOn, 0} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// TestLoadRefusesLyingHeaders: a header that does not fit the database it
// is loaded for is refused before it sizes anything, and a code arena
// the input does not hold fails at end of input — not after trying to
// allocate what the caller's record count would take.
func TestLoadRefusesLyingHeaders(t *testing.T) {
	for _, c := range []struct {
		name     string
		blob     []byte
		dim, n   int
		wantText string
	}{
		// dim 4, m 1, k 1 and one centroid, then no code for any of the
		// MaxInt rows the caller declares.
		{"n = MaxInt", sealed(append(storeHeader(1, 1, 0), make([]byte, 4*8)...)), 4, math.MaxInt, "truncated"},
		{"m > dim", sealed(storeHeader(5, 1, 10)), 4, 10, "implausible"},
		{"m = 0", sealed(storeHeader(0, 1, 10)), 4, 10, "implausible"},
		{"k > 256", sealed(storeHeader(1, 257, 10)), 4, 10, "implausible"},
		{"TrainedOn < 0", sealed(storeHeader(1, 1, -1)), 4, 10, "implausible"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := loadStream(c.blob, c.dim, c.n)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.wantText) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.wantText)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%s: refusing %d bytes allocated %d", c.name, len(c.blob), alloc)
		}
	}
}

// FuzzLoad feeds Load mutations of small valid sections, under the shape
// each was saved with or any other small one, each sealed with a matching
// trailer so the mutation reaches Load. Whatever arrives, Load returns an
// error or a store of exactly the caller's shape whose code arena is the
// code bytes it consumed — never a panic, and nothing sized by a count the
// input merely claims.
func FuzzLoad(f *testing.F) {
	for _, c := range []struct{ n, dim, m int }{{12, 4, 2}, {30, 5, 5}, {2, 3, 1}} {
		store, err := Build(randVecs(uint64(c.n), c.n, c.dim), TrainConfig{M: c.m, Seed: 1})
		if err != nil {
			f.Fatal(err)
		}
		b := saveStream(f, store)
		f.Add(b[:len(b)-4], uint8(c.dim), uint8(c.n))
	}
	f.Fuzz(func(t *testing.T, section []byte, dim, n uint8) {
		s, err := loadStream(sealed(section), int(dim), int(n))
		if err != nil {
			return
		}
		if s.Book.Dim() != int(dim) || s.Codes.Len() != int(n) || s.Codes.Width() != s.Book.M() {
			t.Fatalf("loaded dim %d, %d rows of %d bytes, M %d; caller said dim %d, %d rows",
				s.Book.Dim(), s.Codes.Len(), s.Codes.Width(), s.Book.M(), dim, n)
		}
		if s.Cfg.M != s.Book.M() {
			t.Fatalf("loaded training config %+v for a codebook of m=%d", s.Cfg, s.Book.M())
		}
		if fixed := 4*8 + 8*s.Book.K()*s.Book.Dim(); s.Codes.Len()*s.Codes.Width() != len(section)-fixed {
			t.Fatalf("%d rows of %d code bytes from a %d-byte section with %d bytes of header and centroids",
				s.Codes.Len(), s.Codes.Width(), len(section), fixed)
		}
	})
}
