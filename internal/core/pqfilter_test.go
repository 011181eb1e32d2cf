package core

import (
	"bytes"
	"strings"
	"testing"

	"ppanns/internal/index"
	"ppanns/internal/vec"
)

// TestPQFilterConformance checks the compressed tier's recall contract on
// every backend: at a calibrated over-fetch, PQ-filtered search must hold
// at least 95% of the recall the exact filter reaches with the same
// budget — the quantization loss the larger k′ is meant to absorb.
func TestPQFilterConformance(t *testing.T) {
	const n, dim, k = 1500, 12, 10
	data := clustered(71, n, dim, 10)
	queries := makeQueries(72, data, 25, 0.3)

	for _, name := range index.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, Params{Dim: dim, Beta: 0.5, Seed: 71, Index: name, PQ: true, PQM: 6}, data)
			opt := SearchOptions{KPrime: 16 * k, EfSearch: 250}
			exact := w.measureRecall(t, queries, k, opt)
			opt.FilterDist = FilterPQ
			pqr := w.measureRecall(t, queries, k, opt)
			if pqr < 0.95*exact {
				t.Fatalf("PQ-filtered recall %.3f under 95%% of exact-filtered %.3f", pqr, exact)
			}
		})
	}
}

// TestPQRefineOrdering checks the exactness contract: whatever candidate
// set the approximate PQ filter hands over, the DCE refine must order the
// returned ids exactly by true distance.
func TestPQRefineOrdering(t *testing.T) {
	const n, dim, k = 900, 10, 10
	data := clustered(73, n, dim, 8)
	queries := makeQueries(74, data, 15, 0.3)

	for _, name := range index.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, Params{Dim: dim, Beta: 0.4, Seed: 73, Index: name, PQ: true, PQM: 5}, data)
			opt := SearchOptions{KPrime: 12 * k, EfSearch: 200, FilterDist: FilterPQ}
			for qi, q := range queries {
				tok, err := w.user.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.server.Search(tok, k, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 {
					t.Fatalf("query %d returned nothing", qi)
				}
				prev := -1.0
				for _, id := range got {
					d := vec.SqDist(data[id], q)
					if d < prev {
						t.Fatalf("query %d: results not ordered by true distance: %v", qi, got)
					}
					prev = d
				}
			}
		})
	}
}

// TestPQChurnConformance drives the compressed tier through the write
// path on every backend: delta inserts must PQ-encode as they land, a
// compaction below the retrain threshold must reuse the codebook, one
// past it must refit, and the code arena must track the ciphertext arena
// id-for-id throughout.
func TestPQChurnConformance(t *testing.T) {
	const n, dim, k = 300, 8, 5
	base := clustered(75, n, dim, 5)
	fresh := clustered(76, 2*n, dim, 5)

	for _, name := range index.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := newWorldWith(t, Params{Dim: dim, Beta: 0.3, Seed: 75, Index: name, PQ: true, PQM: 4}, ServerOptions{CompactAt: -1}, base)
			sp := w.server.snap.Load()
			if sp.edb.PQ == nil || sp.edb.PQ.TrainedOn != n {
				t.Fatalf("initial PQ store missing or mis-provenanced: %+v", sp.edb.PQ)
			}
			bookBefore := sp.edb.PQ.Book

			// Delta inserts must extend the code arena in lockstep with the
			// ciphertext arena, each row encoded under the live codebook.
			for i := 0; i < 20; i++ {
				payload, err := w.owner.EncryptVector(fresh[i])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.server.Insert(payload); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.server.Delete(3); err != nil {
				t.Fatal(err)
			}
			sp = w.server.snap.Load()
			if got, want := sp.edb.PQ.Codes.Len(), sp.edb.DCE.Len(); got != want {
				t.Fatalf("code arena has %d rows, ciphertext arena %d", got, want)
			}
			checkCodes(t, sp, n, n+20)

			// Below the retrain threshold the compactor must fold codes
			// under the original codebook.
			if err := w.server.Compact(); err != nil {
				t.Fatal(err)
			}
			sp = w.server.snap.Load()
			if sp.edb.PQ.Book != bookBefore {
				t.Fatal("compaction below the retrain threshold replaced the codebook")
			}
			if sp.edb.PQ.TrainedOn != n {
				t.Fatalf("TrainedOn drifted to %d without a retrain", sp.edb.PQ.TrainedOn)
			}
			if got, want := sp.edb.PQ.Codes.Len(), sp.edb.DCE.Len(); got != want {
				t.Fatalf("post-fold code arena has %d rows, ciphertext arena %d", got, want)
			}

			// Grow past 2× the training corpus; the next compaction must
			// refit and re-encode everything under the new codebook.
			for i := 20; i < len(fresh); i++ {
				payload, err := w.owner.EncryptVector(fresh[i])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.server.Insert(payload); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.server.Compact(); err != nil {
				t.Fatal(err)
			}
			sp = w.server.snap.Load()
			total := n + len(fresh)
			if sp.edb.PQ.Book == bookBefore {
				t.Fatal("compaction past the retrain threshold kept the stale codebook")
			}
			if sp.edb.PQ.TrainedOn != total {
				t.Fatalf("retrained TrainedOn = %d, want %d", sp.edb.PQ.TrainedOn, total)
			}
			if got, want := sp.edb.PQ.Codes.Len(), sp.edb.DCE.Len(); got != want {
				t.Fatalf("retrained code arena has %d rows, ciphertext arena %d", got, want)
			}
			checkCodes(t, sp, 0, total)

			// And the compressed read path must still work over the result.
			queries := makeQueries(77, base, 10, 0.3)
			all := append(append([][]float64(nil), base...), fresh...)
			opt := SearchOptions{KPrime: 12 * k, EfSearch: 200, FilterDist: FilterPQ}
			var recall float64
			for _, q := range queries {
				tok, err := w.user.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.server.Search(tok, k, opt)
				if err != nil {
					t.Fatal(err)
				}
				recall += recallOf(got, bruteForce(all, q, k, w.server.Deleted))
			}
			if recall /= float64(len(queries)); recall < 0.5 {
				t.Fatalf("post-churn PQ recall %.3f implausibly low", recall)
			}
		})
	}
}

// checkCodes verifies that rows [lo, hi) of the snapshot's code arena are
// the codebook's encoding of the corresponding rows of the SAP column
// (skipping tombstoned ids, whose rows may be zeroed by a fold).
func checkCodes(t *testing.T, sp *snapshot, lo, hi int) {
	t.Helper()
	code := make([]byte, sp.edb.PQ.Book.M())
	for id := lo; id < hi; id++ {
		if sp.deadAt(id) {
			continue
		}
		sp.edb.PQ.Book.EncodeInto(code, sp.edb.SAP.At(id))
		if !bytes.Equal(code, sp.edb.PQ.Codes.Row(id)) {
			t.Fatalf("code row %d diverges from the codebook's encoding", id)
		}
	}
}

// TestMemoryStats pins the per-point figures of a PQ database and its
// delta bloat after 10 inserts: each delta record is a SAP row, a DCE
// record and an M-byte code row.
func TestMemoryStats(t *testing.T) {
	const n, dim, m, inserts = 60, 12, 4, 10
	data := clustered(79, n+inserts, dim, 3)
	w := newWorldWith(t, Params{Dim: dim, Beta: 0.3, Seed: 79, PQ: true, PQM: m}, ServerOptions{CompactAt: -1}, data[:n])
	for _, v := range data[n:] {
		p, err := w.owner.EncryptVector(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.server.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	edb := w.server.snap.Load().edb
	sapStride, dceStride := vec.PadStride(dim), edb.DCE.Stride()
	got := w.server.MemoryStats()
	want := MemoryStats{
		N:          n + inserts,
		SAP:        float64(8 * sapStride),
		DCE:        float64(8 * dceStride),
		PQCodes:    m,
		PQBook:     float64(edb.PQ.Book.SizeBytes()) / (n + inserts),
		DeltaBytes: inserts * (8*(sapStride+dceStride) + m),
	}
	if got != want {
		t.Fatalf("MemoryStats = %+v, want %+v", got, want)
	}
}

// TestFilterPQErrors pins the wire-safe failure modes of the mode switch,
// through Search and SearchShard.
func TestFilterPQErrors(t *testing.T) {
	data := clustered(78, 400, 8, 4)
	w := newWorld(t, Params{Dim: 8, Beta: 0.5, Seed: 78}, data) // no PQ tier
	tok, err := w.user.Query(data[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.server.Search(tok, 5, SearchOptions{FilterDist: FilterPQ}); err == nil ||
		!strings.Contains(err.Error(), "no PQ store") {
		t.Fatalf("FilterPQ without a store: %v", err)
	}
	if _, err := w.server.Search(tok, 5, SearchOptions{FilterDist: FilterDistMode(9)}); err == nil ||
		!strings.Contains(err.Error(), "unknown filter distance mode") {
		t.Fatalf("unknown mode: %v", err)
	}
	if _, err := w.server.SearchShard(tok, 5, SearchOptions{FilterDist: FilterPQ}); err == nil ||
		!strings.Contains(err.Error(), "no PQ store") {
		t.Fatalf("SearchShard FilterPQ without a store: %v", err)
	}
}

// TestPQSearchMatchesExactAtFullOverfetch: when k′ covers the whole
// database the candidate set is everything either way, so FilterPQ and
// FilterExact must return identical ids in identical order — the
// filter only steers, the refine decides.
func TestPQSearchMatchesExactAtFullOverfetch(t *testing.T) {
	const n, dim, k = 500, 8, 10
	data := clustered(79, n, dim, 4)
	w := newWorld(t, Params{Dim: dim, Beta: 0.4, Seed: 79, Index: "ivf", PQ: true, PQM: 4}, data)
	queries := makeQueries(80, data, 10, 0.3)
	for qi, q := range queries {
		tok, err := w.user.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		a, err := w.server.Search(tok, k, SearchOptions{KPrime: n, EfSearch: n})
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.server.Search(tok, k, SearchOptions{KPrime: n, EfSearch: n, FilterDist: FilterPQ})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d: full-overfetch results diverge at %d: %v vs %v", qi, i, a, b)
			}
		}
	}
}

// TestSplitCarriesPQ: sharding a PQ-tiered database must hand every shard
// its stripe of the code arena under the shared (full-corpus) codebook,
// with tombstoned rows zeroed, and FilterPQ must work on each shard.
func TestSplitCarriesPQ(t *testing.T) {
	const n, dim, shards = 400, 8, 3
	data := clustered(86, n, dim, 4)
	w := newWorld(t, Params{Dim: dim, Beta: 0.5, Seed: 86, PQ: true, PQM: 4}, data)
	if err := w.server.Delete(5); err != nil {
		t.Fatal(err)
	}
	edb := flushed(t, w.server)
	parts, err := edb.Split(shards, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := edb.PQ.Book.M()
	zero := make([]byte, m)
	for s, part := range parts {
		if part.PQ == nil {
			t.Fatalf("shard %d lost the PQ tier", s)
		}
		if part.PQ.Book != edb.PQ.Book {
			t.Fatalf("shard %d retrained the codebook instead of sharing it", s)
		}
		if got, want := part.PQ.Codes.Len(), part.DCE.Len(); got != want {
			t.Fatalf("shard %d: %d code rows vs %d ciphertext rows", s, got, want)
		}
		for local := 0; local < part.DCE.Len(); local++ {
			g := local*shards + s
			want := edb.PQ.Codes.Row(g)
			if !edb.DCE.Has(g) {
				want = zero
			}
			if !bytes.Equal(part.PQ.Codes.Row(local), want) {
				t.Fatalf("shard %d row %d (global %d) diverges", s, local, g)
			}
		}
		srv, err := NewServer(part)
		if err != nil {
			t.Fatal(err)
		}
		tok, err := w.user.Query(data[s])
		if err != nil {
			t.Fatal(err)
		}
		got, err := srv.Search(tok, 3, SearchOptions{KPrime: 36, EfSearch: 100, FilterDist: FilterPQ})
		if err != nil || len(got) == 0 {
			t.Fatalf("shard %d FilterPQ search: %v, %v", s, got, err)
		}
	}
}
