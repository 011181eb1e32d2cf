package eval

import (
	"fmt"
	"math"
	"testing"

	"ppanns/internal/baselines"
	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/hnsw"
	"ppanns/internal/lsh"
	"ppanns/internal/vec"
)

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
	costs  baselines.Costs
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
	ours, err := baselines.NewOursFromData(d.Train, core.Params{
		Dim: d.Dim, Beta: s.beta(t, d), Seed: s.seed,
	}, core.SearchOptions{KPrime: 16 * s.k, EfSearch: 16 * s.k})
	if err != nil {
		t.Fatal(err)
	}
	lshCfg := lshDefaults(d, s.seed)
	rs, err := baselines.NewRSSANN(d.Train, baselines.RSSANNConfig{
		LSH: lshCfg, Probes: 8, Seed: s.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	pacm, err := baselines.NewPACMANN(d.Train, baselines.PACMANNConfig{
		Graph: hnsw.Config{M: 16, EfConstruction: 200},
		Beam:  8, MaxRounds: 10, Seed: s.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	pri, err := baselines.NewPRIANN(d.Train, baselines.PRIANNConfig{
		LSH: lshCfg, BucketCap: 64, Seed: s.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var runs []systemRun
	for _, sys := range []struct {
		baselines.System
		slow bool // PIR-based: run on fewer queries
	}{{ours, false}, {rs, false}, {pri, true}, {pacm, true}} {
		run := systemRun{name: sys.Name(), nq: len(d.Queries)}
		if sys.slow {
			run.nq = s.slowQueries()
		}
		run.recall = recall(t, d, s.k, run.nq, func(i int) ([]int, error) {
			ids, c, err := sys.Search(d.Queries[i], s.k)
			run.costs.Add(c)
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
func lshDefaults(d *dataset.Data, seed uint64) lsh.Config {
	sample := d.Train[:min(len(d.Train), 400)]
	nq := min(len(d.Queries), 40)
	var nn float64
	for _, q := range d.Queries[:nq] {
		ids := dataset.ExactKNN(sample, q, 1)
		nn += vec.Dist(sample[ids[0]], q)
	}
	nn /= float64(nq)
	return lsh.Config{Dim: d.Dim, Tables: 10, Hashes: 6, W: 2 * nn, Seed: seed}
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
		sum += vec.Dist(d.Train[ids[0]], q)
	}
	want := 2 * sum / 8
	if got := lshDefaults(d, 61).W; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("W = %g at 8 queries, want twice their mean NN distance %g", got, want)
	}
}
