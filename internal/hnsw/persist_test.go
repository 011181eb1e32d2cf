package hnsw

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"ppanns/internal/frame"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	data := clusteredData(21, 800, 12, 6)
	g := buildGraph(t, withDead(data, 5), Config{M: 10, EfConstruction: 120, Seed: 21})

	g2, err := loadBytes(saveBytes(t, g), g.data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() || g2.Len() != 799 || g2.Config() != g.Config() {
		t.Fatalf("loaded shape %d/%+v, want %d/%+v", g2.Len(), g2.Config(), g.Len(), g.Config())
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

// resealed patches the int64 header word at word of a saved graph and
// gives the stream a trailer that matches, so the patch reaches Load's
// own checks.
func resealed(raw []byte, word int, v int64) []byte {
	b := bytes.Clone(raw[:len(raw)-4])
	binary.LittleEndian.PutUint64(b[8*word:], uint64(v))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func TestLoadRejectsGarbage(t *testing.T) {
	empty := vec.ZeroDataset(4, 0)
	if _, err := loadBytes([]byte("not an index"), empty); err == nil {
		t.Fatal("expected error for garbage")
	}
	if _, err := loadBytes(nil, empty); err == nil {
		t.Fatal("expected error for empty stream")
	}
	// A graph is refused by a caller expecting another shape.
	g := buildGraph(t, withDead(clusteredData(24, 50, 6, 2), 9), Config{Seed: 24})
	raw := saveBytes(t, g)
	for name, rows := range map[string]*vec.Dataset{
		"48 rows": g.data.Gather(seq(48)),
		"50 rows": g.data.Gather(append(seq(49), 0)),
	} {
		if _, err := loadBytes(raw, rows); err == nil {
			t.Errorf("%s: a graph of 49 6-dim nodes loaded", name)
		}
	}
	// Header words M, EfConstruction, Seed, entry, maxLevel: a value Build
	// cannot leave is refused.
	for _, c := range []struct {
		word int
		v    int64
	}{{0, 1}, {0, -16}, {1, 0}, {3, 50}, {3, 49}, {3, -1}, {4, 65}} {
		if _, err := loadBytes(resealed(raw, c.word, c.v), g.data); err == nil {
			t.Errorf("a graph with header word %d = %d loaded", c.word, c.v)
		}
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	g := buildGraph(t, clusteredData(22, 100, 6, 3), Config{Seed: 22})
	raw := saveBytes(t, g)
	for _, cut := range []int{10, len(raw) / 2, len(raw) - 3} {
		if _, err := loadBytes(raw[:cut], g.data); err == nil {
			t.Fatalf("expected error for stream truncated at %d", cut)
		}
	}
}

func TestSaveLoadEmptyGraph(t *testing.T) {
	g, err := Build(vec.ZeroDataset(4, 0), nil, Config{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := loadBytes(saveBytes(t, g), g.data)
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
	g := buildGraph(t, data, Config{Seed: 25})
	w := &stallWriter{started: make(chan struct{}), release: make(chan struct{})}
	saved := make(chan error, 1)
	go func() {
		e := frame.NewEncoder(w)
		g.Save(e)
		saved <- e.Close()
	}()
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

// seq is the ids 0..n-1.
func seq(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
