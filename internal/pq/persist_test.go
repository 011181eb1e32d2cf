package pq

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// storeHeader returns the PQSTORE1 magic and a header declaring the given
// shape, with zero provenance fields.
func storeHeader(dim, m, k, n int64) []byte {
	b := []byte(storeMagic)
	for _, v := range []int64{dim, m, k, n, 0, 0, 0, 0, 0, 0} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// TestLoadRefusesLyingHeaders: a header that disagrees with the database it
// is loaded for is refused before it sizes anything — not after trying to
// allocate what it claims.
func TestLoadRefusesLyingHeaders(t *testing.T) {
	for _, c := range []struct {
		name     string
		blob     []byte
		dim, n   int
		wantText string
	}{
		// 120 bytes: dim 4, m 1, k 1 and one zero centroid block, claiming
		// 2^33 code rows (8 GiB) for a database of 10 records.
		{"n = 2^33", append(storeHeader(4, 1, 1, 1<<33), make([]byte, 4*8)...), 4, 10, "rows"},
		// 88 bytes claiming dim 2^31 with 256 centroids: 4 TiB of
		// centroid floats for a database of dimension 4.
		{"dim = 2^31", storeHeader(1<<31, 1, 256, 0), 4, 0, "dimension"},
		{"m > dim", storeHeader(4, 5, 1, 10), 4, 10, "implausible"},
		{"k > 256", storeHeader(4, 1, 257, 10), 4, 10, "implausible"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(c.blob), c.dim, c.n)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.wantText) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.wantText)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%s: refusing %d bytes allocated %d", c.name, len(c.blob), alloc)
		}
	}
}

// FuzzLoad feeds Load mutations of small valid stores, under the shape each
// was saved with or any other small one. Whatever arrives, Load returns an
// error or a store of exactly the caller's shape whose code arena is the
// code bytes it consumed — never a panic, and nothing sized by a count the
// input merely claims.
func FuzzLoad(f *testing.F) {
	for _, c := range []struct{ n, dim, m, k int }{{12, 4, 2, 4}, {30, 5, 5, 8}, {2, 3, 1, 1}} {
		store, err := Build(randVecs(uint64(c.n), c.n, c.dim), TrainConfig{M: c.m, K: c.k, Seed: 1})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := store.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(c.dim), uint8(c.n))
	}
	f.Fuzz(func(t *testing.T, blob []byte, dim, n uint8) {
		r := bytes.NewReader(blob)
		s, err := Load(r, int(dim), int(n))
		if err != nil {
			return
		}
		if s.Book.Dim() != int(dim) || s.Codes.Len() != int(n) || s.Codes.M() != s.Book.M() {
			t.Fatalf("loaded dim %d, %d rows of %d bytes, M %d; caller said dim %d, %d rows",
				s.Book.Dim(), s.Codes.Len(), s.Codes.M(), s.Book.M(), dim, n)
		}
		fixed := len(storeMagic) + 10*8 + 8*s.Book.K()*s.Book.Dim() + 4
		if consumed := len(blob) - r.Len(); s.Codes.Len()*s.Codes.M() != consumed-fixed {
			t.Fatalf("%d rows of %d code bytes from %d bytes consumed past %d of header, centroids and checksum",
				s.Codes.Len(), s.Codes.M(), consumed, fixed)
		}
	})
}
