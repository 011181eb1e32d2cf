package core

import "testing"

// benchWorld builds a deployment once per benchmark binary.
type benchWorld struct {
	data   [][]float64
	server *Server
	toks   []*QueryToken
}

var benchW *benchWorld

func getBenchWorld(b *testing.B) *benchWorld {
	b.Helper()
	if benchW != nil {
		return benchW
	}
	// Paper-scale dimensionality (SIFT-like): at d=128 a ciphertext record
	// is ~8.7 KB, so the candidate working set exceeds L2 and the memory
	// layout, not the ALU, dominates — the regime the arena targets.
	data := clustered(91, 3000, 128, 12)
	owner, err := NewDataOwner(Params{Dim: 128, Beta: 0.3, Seed: 91})
	if err != nil {
		b.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(data)
	if err != nil {
		b.Fatal(err)
	}
	server, err := NewServer(edb)
	if err != nil {
		b.Fatal(err)
	}
	user, err := NewUser(owner.UserKey())
	if err != nil {
		b.Fatal(err)
	}
	w := &benchWorld{data: data, server: server}
	for _, q := range makeQueries(92, data, 64, 0.3) {
		tok, err := user.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		w.toks = append(w.toks, tok)
	}
	benchW = w
	return w
}

// BenchmarkRefine isolates the refine phase over a fixed candidate set:
// the pooled heap comparing records in place in the flat arena.
func BenchmarkRefine(b *testing.B) {
	const k, kPrime = 10, 160
	w := getBenchWorld(b)
	tok := w.toks[0]
	edb := flushed(b, w.server)
	items := edb.Index.SearchInto(nil, tok.SAP, kPrime, kPrime)
	cands := make([]int, len(items))
	for i, it := range items {
		cands[i] = it.ID
	}

	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		sc := getScratch()
		defer putScratch(sc)
		cmp := &sc.dce
		var dst []int
		for i := 0; i < b.N; i++ {
			*cmp = dceComparator{store: edb.DCE, tq: tok.Trapdoor, cands: cands}
			dst, _ = refineScratch(sc, cands, k, cmp, dst)
		}
	})
}

// BenchmarkSearch measures the full filter-and-refine path. The "into"
// variant reuses the caller-side result buffer and must report 0 allocs/op
// at steady state — the zero-allocation guarantee of the flat-arena
// rework.
func BenchmarkSearch(b *testing.B) {
	w := getBenchWorld(b)
	opt := SearchOptions{KPrime: 160, EfSearch: 160}

	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.server.Search(w.toks[i%len(w.toks)], 10, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("into", func(b *testing.B) {
		b.ReportAllocs()
		var dst []int
		var err error
		// Warm the pools before the measured region.
		for _, tok := range w.toks {
			if dst, _, err = w.server.SearchInto(dst, tok, 10, opt); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if dst, _, err = w.server.SearchInto(dst, w.toks[i%len(w.toks)], 10, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
