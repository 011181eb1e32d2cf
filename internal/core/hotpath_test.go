package core

import (
	"strings"
	"testing"

	"ppanns/internal/index"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// TestSearchIntoZeroAlloc pins the hot-path guarantee: once the scratch
// and context pools are warm and the caller recycles its result buffer, a
// full filter-and-refine search allocates nothing — on the exact filter and
// on the PQ filter, where the graph walk asks a pooled pq.Scanner for every
// hop's distances.
func TestSearchIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	data := clustered(81, 1200, 10, 8)
	queries := makeQueries(82, data, 8, 0.3)
	for _, c := range []struct {
		name   string
		params Params
		opt    SearchOptions
		delta  bool // 20 inserts and a tombstone pending beside the index
	}{
		{"hnsw exact", Params{Dim: 10, Beta: 0.3, Seed: 81}, SearchOptions{KPrime: 40, EfSearch: 80}, false},
		{"hnsw+pq", Params{Dim: 10, Beta: 0.3, Seed: 81, PQ: true, PQM: 5}, SearchOptions{KPrime: 40, EfSearch: 80, FilterDist: FilterPQ}, false},
		{"hnsw exact, delta", Params{Dim: 10, Beta: 0.3, Seed: 81}, SearchOptions{KPrime: 40, EfSearch: 80}, true},
		{"hnsw+pq, delta", Params{Dim: 10, Beta: 0.3, Seed: 81, PQ: true, PQM: 5}, SearchOptions{KPrime: 40, EfSearch: 80, FilterDist: FilterPQ}, true},
	} {
		w := newWorldWith(t, c.params, ServerOptions{CompactAt: -1}, data)
		if c.delta {
			for _, v := range makeQueries(83, data, 20, 0.3) {
				p, err := w.owner.EncryptVector(v)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.server.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.server.Delete(7); err != nil {
				t.Fatal(err)
			}
		}
		toks := make([]*QueryToken, len(queries))
		for i, q := range queries {
			tok, err := w.user.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			toks[i] = tok
		}
		var dst []int
		// Warm-up: grow every pooled buffer to its steady-state size.
		for _, tok := range toks {
			var err error
			dst, _, err = w.server.SearchInto(dst, tok, 5, c.opt)
			if err != nil {
				t.Fatal(err)
			}
		}
		// A GC cycle landing mid-measurement can drain the sync.Pools and
		// charge the refill to this run; retry so only a persistent
		// allocation fails the test.
		i := 0
		var allocs float64
		for attempt := 0; attempt < 3; attempt++ {
			allocs = testing.AllocsPerRun(64, func() {
				tok := toks[i%len(toks)]
				i++
				var err error
				dst, _, err = w.server.SearchInto(dst, tok, 5, c.opt)
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs == 0 {
				break
			}
		}
		if allocs != 0 {
			t.Errorf("%s: steady-state SearchInto allocates %.1f objects/op, want 0", c.name, allocs)
		}
	}
}

// rogueIndex wraps a real backend but shifts every returned id, simulating
// a filter index that has fallen out of step with the ciphertext store.
type rogueIndex struct {
	index.SecureIndex
	shift int
}

func (r *rogueIndex) SearchIntoDist(dst []resultheap.Item, q []float64, k, ef int, sc vec.BlockScanner) []resultheap.Item {
	dst = r.SecureIndex.SearchIntoDist(dst, q, k, ef, sc)
	for i := range dst {
		dst[i].ID += r.shift
	}
	return dst
}

// TestSearchRejectsUnknownCandidateIDs covers the hardening satellite: a
// filter backend yielding ids with no DCE ciphertext must produce a
// wire-safe error, not a panic in the serving process.
func TestSearchRejectsUnknownCandidateIDs(t *testing.T) {
	data := clustered(85, 300, 8, 3)
	w := newWorld(t, Params{Dim: 8, Beta: 0.3, Seed: 85}, data)
	tok, err := w.user.Query(data[0])
	if err != nil {
		t.Fatal(err)
	}
	flushed(t, w.server).Index = &rogueIndex{SecureIndex: flushed(t, w.server).Index, shift: len(data)}
	_, err = w.server.Search(tok, 5, SearchOptions{KPrime: 40})
	if err == nil {
		t.Fatal("expected error for out-of-store candidate ids")
	}
	if !strings.Contains(err.Error(), "no DCE ciphertext") {
		t.Fatalf("error %q is not the wire-safe candidate rejection", err)
	}
	// Negative ids are rejected the same way, not by panicking.
	flushed(t, w.server).Index.(*rogueIndex).shift = -len(data)
	if _, err = w.server.Search(tok, 5, SearchOptions{KPrime: 40}); err == nil {
		t.Fatal("expected error for negative candidate ids")
	}
}
