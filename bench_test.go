// Benchmarks of the serving path at the paper's operating points (the
// experiment index is the README's "Reproducing the paper's evaluation").
// Each BenchmarkFigN measures the part of the scheme its figure plots, at
// laptop scale; the full sweeps that print the figures are internal/eval's
// tests, and the benches of the comparison systems (Figures 6 and 7, AME's
// encryption and comparison) sit there beside those systems' code.
// Ablations and scheme micro-benchmarks follow the figure benches.
package ppanns_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"ppanns"
	"ppanns/internal/dataset"
	"ppanns/internal/dce"
	"ppanns/internal/dcpe"
	"ppanns/internal/hnsw"
	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

const (
	benchN = 3000
	benchK = 10
)

// fixture is the shared deployment most figure benches reuse.
type fixture struct {
	data   *dataset.Data
	owner  *ppanns.DataOwner
	user   *ppanns.User
	server *ppanns.Server
	tokens []*ppanns.QueryToken
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func mainFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		fix = buildFixture(b, benchN)
	})
	return fix
}

func buildFixture(b *testing.B, n int) *fixture {
	b.Helper()
	data := dataset.DeepLike(n, 30, 7)
	owner, err := ppanns.NewDataOwner(ppanns.Params{
		Dim: data.Dim, Beta: 0.3, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(data.Train)
	if err != nil {
		b.Fatal(err)
	}
	server, err := ppanns.NewServer(edb)
	if err != nil {
		b.Fatal(err)
	}
	user, err := ppanns.NewUser(owner.UserKey())
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{data: data, owner: owner, user: user, server: server}
	for _, q := range data.Queries {
		tok, err := user.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		f.tokens = append(f.tokens, tok)
	}
	return f
}

func (f *fixture) search(b *testing.B, opt ppanns.SearchOptions) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok := f.tokens[i%len(f.tokens)]
		if _, err := f.server.Search(tok, benchK, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1DatasetGen regenerates one of Table I's corpora.
func BenchmarkTable1DatasetGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = dataset.SIFTLike(2000, 10, uint64(i)+1)
	}
}

// BenchmarkFig4FilterBeta measures the filter-phase-only search at the β
// operating points of Figure 4.
func BenchmarkFig4FilterBeta(b *testing.B) {
	for _, beta := range []float64{0, 0.3, 0.6} {
		b.Run(fmt.Sprintf("beta=%v", beta), func(b *testing.B) {
			data := dataset.DeepLike(1500, 10, 11)
			owner, err := ppanns.NewDataOwner(ppanns.Params{Dim: data.Dim, Beta: beta, IndexOptions: ppanns.IndexOptions{EfConstruction: 150}, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			edb, err := owner.EncryptDatabase(data.Train)
			if err != nil {
				b.Fatal(err)
			}
			server, _ := ppanns.NewServer(edb)
			user, _ := ppanns.NewUser(owner.UserKey())
			toks := make([]*ppanns.QueryToken, len(data.Queries))
			for i, q := range data.Queries {
				toks[i], _ = user.Query(q)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := server.Search(toks[i%len(toks)], benchK,
					ppanns.SearchOptions{KPrime: benchK, EfSearch: 50, Refine: ppanns.RefineNone}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Ratio measures the full filter-and-refine search across
// Figure 5's Ratio_k axis: k′ = Ratio_k·k.
func BenchmarkFig5Ratio(b *testing.B) {
	f := mainFixture(b)
	for _, ratio := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("ratio=%d", ratio), func(b *testing.B) {
			f.search(b, ppanns.SearchOptions{KPrime: ratio * benchK, EfSearch: 4 * ratio * benchK})
		})
	}
}

// BenchmarkFig8Encryption measures Figure 8's per-vector encryption cost
// for the paper's two schemes; internal/eval's BenchmarkFig8Encryption
// measures the AME baseline the same way.
func BenchmarkFig8Encryption(b *testing.B) {
	const dim = 128
	r := rng.NewSeeded(17)
	v := rng.Gaussian(r, nil, dim)
	sapKey, err := dcpe.KeyGen(rng.Derive(r, 1), dim, 1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	dceKey, err := dce.KeyGen(rng.Derive(r, 2), dim, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("DCPE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sapKey.Encrypt(v)
		}
	})
	b.Run("DCE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dceKey.Encrypt(v)
		}
	})
}

// BenchmarkFig9CostSplit measures the full search at Figure 9's recall-0.9
// operating point, reporting the per-phase microseconds the figure splits.
func BenchmarkFig9CostSplit(b *testing.B) {
	f := mainFixture(b)
	var filterNs, refineNs, comparisons int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok := f.tokens[i%len(f.tokens)]
		_, st, err := f.server.SearchInto(nil, tok, benchK, ppanns.SearchOptions{KPrime: 16 * benchK, EfSearch: 160})
		if err != nil {
			b.Fatal(err)
		}
		filterNs += st.FilterTime.Nanoseconds()
		refineNs += st.RefineTime.Nanoseconds()
		comparisons += int64(st.Comparisons)
	}
	b.ReportMetric(float64(filterNs)/float64(b.N)/1e3, "filter-µs/op")
	b.ReportMetric(float64(refineNs)/float64(b.N)/1e3, "refine-µs/op")
	b.ReportMetric(float64(comparisons)/float64(b.N), "SDC/op")
}

// BenchmarkFig10Scalability measures search latency across Figure 10's
// growing database sizes.
func BenchmarkFig10Scalability(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := buildFixture(b, n)
			f.search(b, ppanns.SearchOptions{KPrime: 16 * benchK, EfSearch: 160})
		})
	}
}

// BenchmarkOverheadVsPlaintext compares the full scheme against plaintext
// HNSW on the same corpus (the Section VII-B closing ratio).
func BenchmarkOverheadVsPlaintext(b *testing.B) {
	f := mainFixture(b)
	b.Run("plaintext-hnsw", func(b *testing.B) {
		g, err := hnsw.Build(vec.DatasetFromSlices(f.data.Train), nil, hnsw.Config{M: 16, EfConstruction: 200, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Search(f.data.Queries[i%len(f.data.Queries)], benchK, 160)
		}
	})
	b.Run("ppanns", func(b *testing.B) {
		f.search(b, ppanns.SearchOptions{KPrime: 16 * benchK, EfSearch: 160})
	})
}

// BenchmarkMaintainInsertDelete measures one Section V-D insert+delete
// round trip against a live index.
func BenchmarkMaintainInsertDelete(b *testing.B) {
	f := buildFixture(b, 1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, err := f.owner.EncryptVector(f.data.Train[i%len(f.data.Train)])
		if err != nil {
			b.Fatal(err)
		}
		id, err := f.server.Insert(payload)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.server.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRefine compares Algorithm 2's heap selection against a
// full comparison sort of the k′ candidates (the design choice the heap's
// O(k′·log k) bound justifies).
func BenchmarkAblationRefine(b *testing.B) {
	f := mainFixture(b)
	tok := f.tokens[0]
	// Materialize one candidate list via the filter phase at k′ = 16k.
	ids, err := f.server.Search(tok, 16*benchK, ppanns.SearchOptions{KPrime: 16 * benchK, EfSearch: 160, Refine: ppanns.RefineNone})
	if err != nil {
		b.Fatal(err)
	}
	edbDCE := fixtureCiphertexts(b, f, ids)
	farther := fartherFunc(func(a, bIdx int) bool {
		return dce.DistanceComp(edbDCE[a], edbDCE[bIdx], tok.Trapdoor) > 0
	})
	local := make([]int, len(ids))
	for i := range local {
		local[i] = i
	}
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var h resultheap.CompareHeap
			h.Reset(benchK, farther)
			for _, id := range local {
				h.Offer(id)
			}
			_ = h.SortedInto(nil)
		}
	})
	b.Run("full-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cands := append([]int(nil), local...)
			sort.Slice(cands, func(x, y int) bool { return farther(cands[y], cands[x]) })
			_ = cands[:benchK]
		}
	})
}

// fixtureCiphertexts re-encrypts the candidate vectors so the ablation can
// compare refine strategies outside the server.
func fixtureCiphertexts(b *testing.B, f *fixture, ids []int) [][]float64 {
	b.Helper()
	key := f.owner.UserKey().DCE
	cts := make([][]float64, len(ids))
	for i, id := range ids {
		cts[i] = key.Encrypt(f.data.Train[id])
	}
	return cts
}

// BenchmarkAblationLinearScanDCE measures the index-free alternative the
// paper rejects at the end of Section IV: a full DCE linear scan with a
// comparison heap over all n vectors.
func BenchmarkAblationLinearScanDCE(b *testing.B) {
	data := dataset.DeepLike(1000, 5, 19)
	r := rng.NewSeeded(19)
	key, err := dce.KeyGen(r, data.Dim, 1)
	if err != nil {
		b.Fatal(err)
	}
	cts := make([][]float64, len(data.Train))
	for i, v := range data.Train {
		cts[i] = key.Encrypt(v)
	}
	tok := key.TrapGen(data.Queries[0])
	farther := fartherFunc(func(a, bIdx int) bool { return dce.DistanceComp(cts[a], cts[bIdx], tok) > 0 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var h resultheap.CompareHeap
		h.Reset(benchK, farther)
		for id := range cts {
			h.Offer(id)
		}
		_ = h.SortedInto(nil)
	}
}

// fartherFunc adapts a plain function to resultheap.Comparator.
type fartherFunc func(a, b int) bool

func (f fartherFunc) Farther(a, b int) bool { return f(a, b) }

// --- Scheme micro-benchmarks (the O(d) vs O(d²) story of Section IV-B).

func BenchmarkDCEDistanceComp(b *testing.B) {
	for _, dim := range []int{96, 128, 960} {
		b.Run(fmt.Sprintf("d=%d", dim), func(b *testing.B) {
			r := rng.NewSeeded(23)
			key, err := dce.KeyGen(r, dim, 1)
			if err != nil {
				b.Fatal(err)
			}
			co := key.Encrypt(rng.Gaussian(r, nil, dim))
			cp := key.Encrypt(rng.Gaussian(r, nil, dim))
			tq := key.TrapGen(rng.Gaussian(r, nil, dim))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dce.DistanceComp(co, cp, tq)
			}
		})
	}
}

func BenchmarkDCETrapGen(b *testing.B) {
	for _, dim := range []int{96, 128, 960} {
		b.Run(fmt.Sprintf("d=%d", dim), func(b *testing.B) {
			r := rng.NewSeeded(31)
			key, err := dce.KeyGen(r, dim, 1)
			if err != nil {
				b.Fatal(err)
			}
			q := rng.Gaussian(r, nil, dim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key.TrapGen(q)
			}
		})
	}
}

func BenchmarkPlainSqDist(b *testing.B) {
	r := rng.NewSeeded(37)
	x := rng.Gaussian(r, nil, 128)
	y := rng.Gaussian(r, nil, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.SqDist(x, y)
	}
}
