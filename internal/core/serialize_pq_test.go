package core

import (
	"bytes"
	"strings"
	"testing"
)

// pqSectionOffset computes where the PQ flag byte sits in a database file:
// right after the ciphertext and SAP sections, before the PQ and index
// sections.
func pqSectionOffset(e *EncryptedDatabase) int {
	return len(edbMagic) + 1 + len(e.Backend) + 2*8 + // magic, tag, header
		e.DCE.Len() + // presence bytes
		e.DCE.Len()*4*e.DCE.CtDim()*8 + // ciphertexts
		e.DCE.Len()*e.Dim*8 // SAP rows
}

// TestPQDatabaseRoundTrip proves the database file carries the
// compressed tier faithfully: codes, codebook provenance and FilterPQ
// search results all survive a save/load cycle, and a corrupted PQ
// section fails the load instead of skewing filter distances.
func TestPQDatabaseRoundTrip(t *testing.T) {
	data := clustered(81, 400, 8, 4)
	w := newWorld(t, Params{Dim: 8, Beta: 0.5, Seed: 81, PQ: true, PQM: 4}, data)
	if err := w.server.Delete(7); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := flushed(t, w.server).Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	edb2, err := LoadEncryptedDatabase(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	orig := flushed(t, w.server)
	if edb2.PQ == nil {
		t.Fatal("PQ tier lost across round-trip")
	}
	if !bytes.Equal(edb2.PQ.Codes.Raw(), orig.PQ.Codes.Raw()) {
		t.Fatal("PQ codes changed across round-trip")
	}
	if edb2.PQ.TrainedOn != orig.PQ.TrainedOn || edb2.PQ.Cfg != orig.PQ.Cfg {
		t.Fatalf("PQ provenance changed: %d/%+v vs %d/%+v",
			edb2.PQ.TrainedOn, edb2.PQ.Cfg, orig.PQ.TrainedOn, orig.PQ.Cfg)
	}
	server2, err := NewServer(edb2)
	if err != nil {
		t.Fatal(err)
	}
	opt := SearchOptions{KPrime: 60, EfSearch: 150, FilterDist: FilterPQ}
	for _, q := range makeQueries(82, data, 10, 0.3) {
		tok, err := w.user.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		a, err := w.server.Search(tok, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := server2.Search(tok, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("result counts differ after round-trip: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("FilterPQ results diverge after round-trip: %v vs %v", a, b)
			}
		}
	}

	off := pqSectionOffset(orig)
	if blob[off] != 1 {
		t.Fatalf("PQ flag byte at %d is %d, want 1", off, blob[off])
	}
	// A flipped byte inside the PQ section must fail the checksum at load.
	bad := append([]byte(nil), blob...)
	bad[off+200] ^= 0x20
	if _, err := LoadEncryptedDatabase(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted PQ section loaded: %v", err)
	}
	// A corrupt flag byte must be rejected, not treated as a mode.
	bad = append([]byte(nil), blob...)
	bad[off] = 7
	if _, err := LoadEncryptedDatabase(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "PQ flag") {
		t.Fatalf("corrupt PQ flag accepted: %v", err)
	}
}
