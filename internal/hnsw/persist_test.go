package hnsw

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	data := clusteredData(21, 800, 12, 6)
	g := buildGraph(t, withDead(data, 5), Config{Dim: 12, M: 10, EfConstruction: 120, Seed: 21})

	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf, 12, 800)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() || g2.Dim() != g.Dim() {
		t.Fatalf("loaded shape %d/%d, want %d/%d", g2.Len(), g2.Dim(), g.Len(), g.Dim())
	}
	if !g2.Deleted(5) {
		t.Fatal("tombstone lost in round trip")
	}
	// Same queries must produce identical result sets.
	r := rng.NewSeeded(3)
	for i := 0; i < 20; i++ {
		q := vec.Add(nil, data[r.IntN(len(data))], rng.GaussianVec(r, 12, 0.3))
		a := g.Search(q, 10, 60)
		b := g2.Search(q, 10, 60)
		if len(a) != len(b) {
			t.Fatalf("result count differs: %d vs %d", len(a), len(b))
		}
		for j := range a {
			if a[j].ID != b[j].ID {
				t.Fatalf("query %d rank %d: id %d vs %d", i, j, a[j].ID, b[j].ID)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not an index")), 4, 0); err == nil {
		t.Fatal("expected error for bad magic")
	}
	var empty bytes.Buffer
	if _, err := Load(&empty, 4, 0); err == nil {
		t.Fatal("expected error for empty stream")
	}
	// A graph is refused by a caller expecting another shape.
	raw := saveBytes(t, buildGraph(t, clusteredData(24, 50, 6, 2), Config{Dim: 6, Seed: 24}))
	for _, shape := range [][2]int{{6, 49}, {6, 51}, {5, 50}, {7, 50}} {
		if _, err := Load(bytes.NewReader(raw), shape[0], shape[1]); err == nil {
			t.Fatalf("a graph of 50 6-dim nodes loaded as %d of dimension %d", shape[1], shape[0])
		}
	}
	// Save writes 2·M and 0 into header slots 2 and 5; any other value is
	// refused.
	for _, slot := range []int{2, 5} {
		forged := bytes.Clone(raw)
		binary.LittleEndian.PutUint64(forged[len(persistMagic)+8*slot:], 7)
		if _, err := Load(bytes.NewReader(forged), 6, 50); err == nil {
			t.Fatalf("a graph with header slot %d = 7 loaded", slot)
		}
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	g := buildGraph(t, clusteredData(22, 100, 6, 3), Config{Dim: 6, Seed: 22})
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{10, len(raw) / 2, len(raw) - 3} {
		if _, err := Load(bytes.NewReader(raw[:cut]), 6, 100); err == nil {
			t.Fatalf("expected error for stream truncated at %d", cut)
		}
	}
}

func TestSaveLoadEmptyGraph(t *testing.T) {
	g, err := Build(nil, Config{Dim: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != 0 {
		t.Fatalf("loaded empty graph has Len %d", g2.Len())
	}
	if res := g2.Search(make([]float64, 4), 1, 10); len(res) != 0 {
		t.Fatal("empty loaded graph returned results")
	}
}

// stallWriter blocks every Write until release is closed, signalling the
// first one on started.
type stallWriter struct {
	started, release chan struct{}
	once             sync.Once
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return len(p), nil
}

// TestSaveDoesNotBlockSearches: a fold checkpoints the graph it has just
// published, so a Save stuck on a slow disk must not stall the searches
// served from that graph.
func TestSaveDoesNotBlockSearches(t *testing.T) {
	data := clusteredData(25, 300, 8, 3)
	g := buildGraph(t, data, Config{Dim: 8, Seed: 25})
	w := &stallWriter{started: make(chan struct{}), release: make(chan struct{})}
	saved := make(chan error, 1)
	go func() { saved <- g.Save(w) }()
	<-w.started
	searched := make(chan int, 1)
	go func() { searched <- len(g.SearchInto(nil, data[7], 5, 20)) }()
	select {
	case got := <-searched:
		if got != 5 {
			t.Errorf("search beside a stalled Save returned %d results", got)
		}
	case <-time.After(5 * time.Second):
		t.Error("search blocked behind a Save stalled on its writer")
		defer func() { <-searched }()
	}
	close(w.release)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
}
