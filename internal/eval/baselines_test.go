package eval

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ppanns"
	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/hnsw"
	"ppanns/internal/index"
	"ppanns/internal/resultheap"
	"ppanns/internal/vec"
)

// The three prior PP-ANNS systems the paper compares against in Section
// VII-B, each with the cost structure that drives the published
// comparison, live in their own files:
//
//   - RS-SANN [25] (rssann_test.go): AES-encrypted vectors + LSH index; the
//     server filters, the user downloads, decrypts and refines candidates.
//   - PACM-ANN [45] (pacmann_test.go): user-driven proximity-graph search
//     where every node visit privately fetches a (vector, adjacency) block
//     from two PIR servers over multiple rounds.
//   - PRI-ANN [27] (priann_test.go): LSH buckets laid out as PIR blocks and
//     fetched in a single round from two non-colluding servers; the user
//     refines.
//
// All three, and the paper's scheme through oursSystem, implement system,
// so Figures 7 and 9 measure them uniformly, with the per-side cost
// accounting (server time, user time, transfer bytes, rounds) the figures
// report.

// costSplit is the per-query cost split.
type costSplit struct {
	ServerTime    time.Duration
	UserTime      time.Duration
	UploadBytes   int64
	DownloadBytes int64
	Rounds        int
	Candidates    int
}

// add accumulates c2 into c.
func (c *costSplit) add(c2 costSplit) {
	c.ServerTime += c2.ServerTime
	c.UserTime += c2.UserTime
	c.UploadBytes += c2.UploadBytes
	c.DownloadBytes += c2.DownloadBytes
	c.Rounds += c2.Rounds
	c.Candidates += c2.Candidates
}

// system is a searchable PP-ANNS deployment under measurement.
type system interface {
	// name identifies the system in reports.
	name() string
	// search answers a k-ANNS query, returning ids closest-first plus the
	// query's cost split.
	search(q []float64, k int) ([]int, costSplit, error)
}

// oursSystem puts the paper's scheme, deployed in process, behind system
// with the baselines' cost accounting.
type oursSystem struct {
	*ppanns.Deployment
	opt core.SearchOptions
}

func (oursSystem) name() string { return "PP-ANNS" }

// search implements system. User time is token generation; server time is
// the whole filter-and-refine search; the single round ships the token up
// and k ids down — the paper's minimal-interaction property.
func (o oursSystem) search(q []float64, k int) ([]int, costSplit, error) {
	c := costSplit{Rounds: 1}
	start := time.Now()
	tok, err := o.User.Query(q)
	if err != nil {
		return nil, c, err
	}
	c.UserTime = time.Since(start)
	// Upload: C_SAP (d float64s) + trapdoor (2d+16 float64s) + k.
	c.UploadBytes = int64(8*len(tok.SAP) + 8*len(tok.Trapdoor.Q) + 4)

	start = time.Now()
	ids, st, err := o.Server.SearchInto(nil, tok, k, o.opt)
	if err != nil {
		return nil, c, err
	}
	c.ServerTime = time.Since(start)
	c.DownloadBytes = int64(4 * len(ids))
	c.Candidates = st.Candidates
	return ids, c, nil
}

// newOurs deploys the scheme over data with params and searches it with
// opt.
func newOurs(tb testing.TB, data [][]float64, params core.Params, opt core.SearchOptions) oursSystem {
	tb.Helper()
	dep, err := ppanns.NewDeployment(params, data)
	if err != nil {
		tb.Fatal(err)
	}
	return oursSystem{dep, opt}
}

// topKByDistance selects the k closest candidate ids to q among cands
// (plaintext refine on the user side, shared by all baselines).
func topKByDistance(data map[int][]float64, cands []int, q []float64, k int) []int {
	var best resultheap.Pool
	for _, id := range cands {
		if v, ok := data[id]; ok {
			best.Offer(int32(id), vec.SqDist(v, q), k)
		}
	}
	out := make([]int, len(best.Cands()))
	for i, c := range best.Cands() {
		out[i] = int(c.ID)
	}
	return out
}

// TestFig7 reproduces Figure 7's recall and traffic: ours against RS-SANN,
// PACM-ANN and PRI-ANN, each tuned toward the paper's recall targets. The
// PIR-based baselines answer only the first 10 queries.
func TestFig7(t *testing.T) {
	s := start(t)
	var tb table
	tb.printf("# Figure 7 — recall and traffic vs baselines (k=%d); PIR-based baselines use %d queries\n", s.k, s.slowQueries())
	for _, d := range s.datasets(t, "sift", "glove", "deep") {
		tb.printf("\n## %s (n=%d)\n", d.Name, len(d.Train))
		tb.printf("%-10s %12s %10s\n", "system", fmt.Sprintf("recall@%d", s.k), "comm(KB/q)")
		for _, run := range s.runSystems(t, d) {
			tb.printf("%-10s %12.3f %10.1f\n", run.name, run.recall, run.bytesPerQuery()/1024)
		}
	}
	s.check(t, "fig7", &tb)
}

// TestFig9 reproduces Figure 9's traffic split of every system tuned toward
// Recall@k = 0.9. The paper's shape: PP-ANNS moves fewer bytes per query
// than every baseline, in one round.
func TestFig9(t *testing.T) {
	s := start(t)
	var tb table
	tb.printf("# Figure 9 — cost split at target Recall@%d ≈ 0.9\n", s.k)
	for _, d := range s.datasets(t, "sift", "deep") {
		tb.printf("\n## %s (n=%d)\n", d.Name, len(d.Train))
		tb.printf("%-10s %10s %12s %12s %8s\n", "system", "recall", "up(KB/q)", "down(KB/q)", "rounds")
		runs := s.runSystems(t, d)
		for _, run := range runs {
			tb.printf("%-10s %10.3f %12.2f %12.2f %8.1f\n", run.name, run.recall,
				float64(run.costs.UploadBytes)/float64(run.nq)/1024,
				float64(run.costs.DownloadBytes)/float64(run.nq)/1024,
				float64(run.costs.Rounds)/float64(run.nq))
		}
		ours := runs[0]
		if ours.costs.Rounds != ours.nq {
			t.Errorf("%s: PP-ANNS takes %d rounds for %d queries, want one each", d.Name, ours.costs.Rounds, ours.nq)
		}
		for _, b := range runs[1:] {
			if ours.bytesPerQuery() >= b.bytesPerQuery() {
				t.Errorf("%s: PP-ANNS moves %.0f B per query, %s %.0f B; want fewer", d.Name, ours.bytesPerQuery(), b.name, b.bytesPerQuery())
			}
		}
	}
	s.check(t, "fig9", &tb)
}

// systemRun is one system's answers to the first nq queries of a corpus.
type systemRun struct {
	name   string
	nq     int
	recall float64
	costs  costSplit
}

func (r systemRun) bytesPerQuery() float64 {
	return float64(r.costs.UploadBytes+r.costs.DownloadBytes) / float64(r.nq)
}

// slowQueries is how many queries the PIR-based baselines answer.
func (s scale) slowQueries() int { return min(s.queries, 10) }

// runSystems builds ours, RS-SANN, PRI-ANN and PACM-ANN over one corpus
// with comparable tuning, in that order, and runs each over the queries.
func (s scale) runSystems(t *testing.T, d *dataset.Data) []systemRun {
	t.Helper()
	ours := newOurs(t, d.Train, core.Params{
		Dim: d.Dim, Beta: s.beta(t, d), Seed: s.seed,
	}, core.SearchOptions{KPrime: 16 * s.k, EfSearch: 16 * s.k})
	lshCfg := lshDefaults(d, s.seed)
	rs, err := newRSSANN(d.Train, rssannConfig{
		LSH: lshCfg, Probes: 8, Seed: s.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	pacm, err := newPACMANN(d.Train, pacmannConfig{
		Graph: hnsw.Config{M: 16, EfConstruction: 200},
		Beam:  8, MaxRounds: 10, Seed: s.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	pri, err := newPRIANN(d.Train, priannConfig{
		LSH: lshCfg, BucketCap: 64, Seed: s.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var runs []systemRun
	for _, sys := range []struct {
		system
		slow bool // PIR-based: run on fewer queries
	}{{ours, false}, {rs, false}, {pri, true}, {pacm, true}} {
		run := systemRun{name: sys.name(), nq: len(d.Queries)}
		if sys.slow {
			run.nq = s.slowQueries()
		}
		run.recall = recall(t, d, s.k, run.nq, func(i int) ([]int, error) {
			ids, c, err := sys.search(d.Queries[i], s.k)
			run.costs.add(c)
			return ids, err
		})
		runs = append(runs, run)
	}
	return runs
}

// lshDefaults returns per-dataset LSH parameters that track each corpus's
// distance scale: the quantization width W is twice the mean
// nearest-neighbour distance of the first 40 queries (or of every query,
// when there are fewer) over a sample of the database.
func lshDefaults(d *dataset.Data, seed uint64) lshConfig {
	sample := d.Train[:min(len(d.Train), 400)]
	nq := min(len(d.Queries), 40)
	var nn float64
	for _, q := range d.Queries[:nq] {
		ids := dataset.ExactKNN(sample, q, 1)
		nn += dist(sample[ids[0]], q)
	}
	nn /= float64(nq)
	return lshConfig{Dim: d.Dim, Tables: 10, Hashes: 6, W: 2 * nn, Seed: seed}
}

func TestLSHDefaultsTracksScale(t *testing.T) {
	small := dataset.DeepLike(500, 40, 61) // unit-norm: NN dist ≪ 1
	large := dataset.SIFTLike(500, 40, 61) // 0..255 range: NN dist ≫ 1
	wSmall := lshDefaults(small, 61).W
	wLarge := lshDefaults(large, 61).W
	if wSmall <= 0 || wLarge <= 0 {
		t.Fatalf("non-positive widths %g %g", wSmall, wLarge)
	}
	if wLarge < 50*wSmall {
		t.Fatalf("W does not track the corpus distance scale: %g vs %g", wSmall, wLarge)
	}
}

// TestLSHDefaultsAveragesTheQueriesItSampled: with fewer than 40 queries,
// W is still twice their mean nearest-neighbour distance, not that sum
// divided by 40 (which shrank W fivefold at 8 queries and left RS-SANN and
// PRI-ANN empty-handed).
func TestLSHDefaultsAveragesTheQueriesItSampled(t *testing.T) {
	d := dataset.DeepLike(500, 8, 61)
	var sum float64
	for _, q := range d.Queries {
		ids := dataset.ExactKNN(d.Train[:400], q, 1)
		sum += dist(d.Train[ids[0]], q)
	}
	want := 2 * sum / 8
	if got := lshDefaults(d, 61).W; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("W = %g at 8 queries, want twice their mean NN distance %g", got, want)
	}
}

// world bundles a shared corpus for baseline tests.
type world struct {
	data    *dataset.Data
	queries [][]float64
	gt      [][]int
}

func newWorld(t *testing.T, n, queries, k int) *world {
	t.Helper()
	d := dataset.DeepLike(n, queries, 77)
	return &world{data: d, queries: d.Queries, gt: d.GroundTruth(k)}
}

// runSystem measures recall and sanity-checks cost accounting.
func runSystem(t *testing.T, sys system, w *world, k int) (float64, costSplit) {
	t.Helper()
	var total costSplit
	got := make([][]int, len(w.queries))
	for i, q := range w.queries {
		ids, c, err := sys.search(q, k)
		if err != nil {
			t.Fatalf("%s: %v", sys.name(), err)
		}
		got[i] = ids
		total.add(c)
	}
	return dataset.MeanRecall(got, w.gt), total
}

func TestOurs(t *testing.T) {
	w := newWorld(t, 2000, 20, 10)
	sys := newOurs(t, w.data.Train, core.Params{
		Dim: w.data.Dim, Beta: 0.05, IndexOptions: index.Options{M: 12, EfConstruction: 150}, Seed: 7,
	}, core.SearchOptions{KPrime: 80, EfSearch: 150})
	recall, costs := runSystem(t, sys, w, 10)
	if recall < 0.85 {
		t.Fatalf("PP-ANNS recall = %.3f, want ≥ 0.85", recall)
	}
	// The defining cost shape: single round, tiny transfers, server-heavy.
	if costs.Rounds != len(w.queries) {
		t.Fatalf("rounds = %d, want one per query", costs.Rounds)
	}
	perQueryUp := costs.UploadBytes / int64(len(w.queries))
	// C_SAP (8d) + trapdoor (8(2d+16)) + k: ~24d+132 bytes.
	want := int64(8*w.data.Dim + 8*(2*w.data.Dim+16) + 4)
	if perQueryUp != want {
		t.Fatalf("upload %d bytes/query, want %d", perQueryUp, want)
	}
}

func TestCostShapesAcrossSystems(t *testing.T) {
	// The qualitative claims behind Figures 7 and 9, at test scale:
	// ours is the fastest server-side and cheapest user-side system.
	w := newWorld(t, 1500, 8, 10)

	ours := newOurs(t, w.data.Train, core.Params{
		Dim: w.data.Dim, Beta: 0.05, IndexOptions: index.Options{M: 12, EfConstruction: 120}, Seed: 8,
	}, core.SearchOptions{KPrime: 80, EfSearch: 120})
	pacm, err := newPACMANN(w.data.Train, pacmannConfig{
		Graph: hnsw.Config{M: 12, EfConstruction: 100}, Beam: 6, MaxRounds: 8, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, oursCosts := runSystem(t, ours, w, 10)
	_, pacmCosts := runSystem(t, pacm, w, 10)

	oursTotal := oursCosts.ServerTime + oursCosts.UserTime
	pacmTotal := pacmCosts.ServerTime + pacmCosts.UserTime
	if oursTotal*10 > pacmTotal {
		t.Fatalf("expected ≥10× speedup over PACM-ANN, got ours=%v pacm=%v", oursTotal, pacmTotal)
	}
	if oursCosts.UploadBytes >= pacmCosts.UploadBytes {
		t.Fatalf("expected far less communication than PACM-ANN: %d vs %d",
			oursCosts.UploadBytes, pacmCosts.UploadBytes)
	}
}

// BenchmarkFig7Baselines measures one query on each of Figure 7's four
// systems at a shared small scale.
func BenchmarkFig7Baselines(b *testing.B) {
	const k = 10
	data := dataset.DeepLike(1000, 10, 13)
	lshCfg := lshConfig{Dim: data.Dim, Tables: 10, Hashes: 6, W: 1.0, Seed: 13}

	ours := newOurs(b, data.Train, core.Params{
		Dim: data.Dim, Beta: 0.3, IndexOptions: index.Options{EfConstruction: 150}, Seed: 13,
	}, core.SearchOptions{KPrime: 16 * k, EfSearch: 160})
	rs, err := newRSSANN(data.Train, rssannConfig{LSH: lshCfg, Probes: 6, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	pri, err := newPRIANN(data.Train, priannConfig{LSH: lshCfg, BucketCap: 48, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	pacm, err := newPACMANN(data.Train, pacmannConfig{
		Graph: hnsw.Config{M: 12, EfConstruction: 100}, Beam: 6, MaxRounds: 6, Seed: 13,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, sys := range []system{ours, rs, pri, pacm} {
		b.Run(sys.name(), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.search(data.Queries[i%len(data.Queries)], k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
