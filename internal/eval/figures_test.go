package eval

import (
	"fmt"
	"testing"

	"ppanns/internal/ame"
	"ppanns/internal/baselines"
	"ppanns/internal/core"
	"ppanns/internal/dce"
	"ppanns/internal/dcpe"
	"ppanns/internal/hnsw"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// TestFig4 reproduces Figure 4: filter-phase-only recall curves for four β
// values per dataset (β = 0, calibrated/2, calibrated, 2·calibrated). The
// paper's shape: the recall ceiling falls as β grows, so at no ef does a
// larger β recall more.
func TestFig4(t *testing.T) {
	s := start(t)
	var tb table
	tb.printf("# Figure 4 — effect of β on filter-phase search (k'=k=%d)\n", s.k)
	for _, d := range s.datasets(t, allNames...) {
		cal := s.beta(t, d)
		tb.printf("\n## %s (n=%d, calibrated β=%.3g)\n", d.Name, len(d.Train), cal)
		var prev []float64
		for _, beta := range []float64{0, cal / 2, cal, 2 * cal} {
			dep := deploy(t, d, beta, s.seed)
			row := dep.sweep(t, &tb, fmt.Sprintf("beta=%-8.3g", beta), s.k, core.SearchOptions{KPrime: s.k, Refine: core.RefineNone}, defaultEfs(s.k))
			for i := range prev {
				if row[i] > prev[i] {
					t.Errorf("%s: recall %.3f at β=%.3g rises above %.3f at the next smaller β (point %d)", d.Name, row[i], beta, prev[i], i)
				}
			}
			prev = row
		}
	}
	s.check(t, "fig4", &tb)
}

// TestFig5 reproduces Figure 5: full filter-and-refine curves across
// Ratio_k ∈ {1, 2, 4, …, 128}. The paper's shape: a larger Ratio_k raises
// the recall ceiling, so a row's best recall never falls as Ratio_k grows.
func TestFig5(t *testing.T) {
	s := start(t)
	var tb table
	tb.printf("# Figure 5 — effect of Ratio_k (k'=Ratio_k·k, k=%d)\n", s.k)
	for _, d := range s.datasets(t, allNames...) {
		beta := s.beta(t, d)
		dep := deploy(t, d, beta, s.seed)
		tb.printf("\n## %s (n=%d, β=%.3g)\n", d.Name, len(d.Train), beta)
		best := 0.0
		for _, ratio := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
			row := dep.sweep(t, &tb, fmt.Sprintf("Ratio_k=%-4d", ratio), s.k, core.SearchOptions{KPrime: ratio * s.k}, defaultEfs(s.k*min(ratio, 16)))
			top := 0.0
			for _, r := range row {
				top = max(top, r)
			}
			if top < best {
				t.Errorf("%s: best recall %.3f at Ratio_k=%d falls below %.3f at a smaller Ratio_k", d.Name, top, ratio, best)
			}
			best = top
		}
	}
	s.check(t, "fig5", &tb)
}

// TestFig6 reproduces Figure 6's recall axis: HNSW-DCE (ours), HNSW-AME
// and HNSW(filter-only) sharing one index, each at widths k·{1,2,4,8,16} of
// the knob it sweeps. The refined rows must sweep k′ for real: DCE's
// recall at k′ = 16k exceeds its recall at k′ = k.
func TestFig6(t *testing.T) {
	s := start(t)
	var tb table
	tb.printf("# Figure 6 — HNSW-DCE vs HNSW-AME vs HNSW(filter), recall per width\n")
	widths := []int{s.k, 2 * s.k, 4 * s.k, 8 * s.k, 16 * s.k}
	for _, d := range s.datasets(t, "sift", "glove", "deep") {
		beta := s.beta(t, d)
		dep := deploy(t, d, beta, s.seed)
		hnswAME, err := baselines.NewHNSWAME(dep.server, d.Train, s.seed)
		if err != nil {
			t.Fatal(err)
		}
		// Few AME queries: each trapdoor is 16 (2d+6)² matrices.
		tds := make([]*ame.Trapdoor, min(len(d.Queries), 10))
		for i := range tds {
			if tds[i], err = hnswAME.Trapdoor(d.Queries[i]); err != nil {
				t.Fatal(err)
			}
		}
		tb.printf("\n## %s (n=%d, β=%.3g, k=%d)\n", d.Name, len(d.Train), beta, s.k)
		// row prints a scheme's recall over its first n queries at each
		// width of the knob it sweeps.
		row := func(name, knob string, n int, search func(i, w int) ([]int, error)) []float64 {
			tb.printf("%-16s", name)
			var rs []float64
			for _, w := range widths {
				r := recall(t, d, s.k, n, func(i int) ([]int, error) { return search(i, w) })
				tb.printf(" | %s=%-4d r=%.3f", knob, w, r)
				rs = append(rs, r)
			}
			tb.printf("\n")
			return rs
		}
		// Filter-only answers with the filter's top k, so k′ = k and the
		// beam is its knob. The refined rows sweep k′, the candidates they
		// refine, with the beam at k′: the index raises any narrower beam
		// to k′, so an ef sweep below it would print one point five times.
		row("HNSW-"+core.RefineNone.String(), "ef", len(dep.tokens), func(i, ef int) ([]int, error) {
			return dep.server.Search(dep.tokens[i], s.k, core.SearchOptions{KPrime: s.k, EfSearch: ef, Refine: core.RefineNone})
		})
		dceRow := row("HNSW-"+core.RefineDCE.String(), "k'", len(dep.tokens), func(i, kPrime int) ([]int, error) {
			return dep.server.Search(dep.tokens[i], s.k, core.SearchOptions{KPrime: kPrime, EfSearch: kPrime})
		})
		row("HNSW-ame", "k'", len(tds), func(i, kPrime int) ([]int, error) {
			ids, _, err := hnswAME.Search(dep.tokens[i], tds[i], s.k, kPrime, kPrime)
			return ids, err
		})
		if dceRow[4] <= dceRow[0] {
			t.Errorf("%s: DCE recall %.3f at k'=16k does not exceed %.3f at k'=k", d.Name, dceRow[4], dceRow[0])
		}
	}
	s.check(t, "fig6", &tb)
}

// TestFig8 reproduces Figure 8 in bytes: the size of one DCPE, DCE and AME
// ciphertext at each dataset's dimensionality. The paper's order holds:
// DCPE < DCE < AME.
func TestFig8(t *testing.T) {
	s := start(t)
	var tb table
	tb.printf("# Figure 8 — bytes per ciphertext of one vector\n")
	tb.printf("%-8s %14s %14s %14s\n", "dim", "DCPE(B)", "DCE(B)", "AME(B)")
	r := rng.NewSeeded(s.seed)
	for _, dim := range []int{96, 100, 128} {
		v := rng.Gaussian(r, nil, dim)
		sapKey, err := dcpe.KeyGen(rng.Derive(r, 1), dim, 1024, 1)
		if err != nil {
			t.Fatal(err)
		}
		dceKey, err := dce.KeyGen(rng.Derive(r, 2), dim)
		if err != nil {
			t.Fatal(err)
		}
		ameKey, err := ame.KeyGen(rng.Derive(r, 3), dim)
		if err != nil {
			t.Fatal(err)
		}
		sapB := 8 * len(sapKey.Encrypt(v))
		dceB := 8 * len(dceKey.Encrypt(v))
		ameB := 0
		ct := ameKey.Encrypt(v)
		for i := range ct.L {
			ameB += 8 * (len(ct.L[i]) + len(ct.R[i]))
		}
		tb.printf("%-8d %14d %14d %14d\n", dim, sapB, dceB, ameB)
		if !(sapB < dceB && dceB < ameB) {
			t.Errorf("d=%d: bytes per ciphertext DCPE %d, DCE %d, AME %d; want DCPE < DCE < AME", dim, sapB, dceB, ameB)
		}
	}
	s.check(t, "fig8", &tb)
}

// TestFig10 reproduces Figure 10's recall axis: recall at ef = k′ = 16k as
// the database grows ×1..×4.
func TestFig10(t *testing.T) {
	s := start(t)
	var tb table
	tb.printf("# Figure 10 — scalability: recall at ef=%d as n grows (paper: 25M–100M; here %d–%d)\n",
		16*s.k, s.n, 4*s.n)
	for _, name := range []string{"sift", "deep"} {
		tb.printf("\n## %s\n", name)
		tb.printf("%-10s %12s\n", "n", fmt.Sprintf("recall@%d", s.k))
		for mult := 1; mult <= 4; mult++ {
			m := s
			m.n = s.n * mult
			d := m.datasets(t, name)[0]
			dep := deploy(t, d, s.beta(t, d), s.seed)
			r := dep.recall(t, s.k, core.SearchOptions{KPrime: 16 * s.k, EfSearch: 16 * s.k})
			tb.printf("%-10d %12.3f\n", m.n, r)
		}
	}
	s.check(t, "fig10", &tb)
}

// TestOverhead reproduces the recall side of Section VII-B's closing
// comparison: plaintext HNSW and the full scheme, each at the first ef that
// reaches Recall@k ≈ 0.9 (the paper's overhead is 5×, 7×, 3× and 4× on the
// four datasets at that recall; the time is benchmark/'s to measure).
func TestOverhead(t *testing.T) {
	s := start(t)
	var tb table
	tb.printf("# Overhead vs plaintext HNSW at Recall@%d ≈ 0.9\n", s.k)
	tb.printf("%-12s %12s %12s\n", "dataset", "plain r", "ours r")
	for _, d := range s.datasets(t, allNames...) {
		beta := s.beta(t, d)
		// Plaintext HNSW at the recall target, built the way the scheme
		// builds its filter index.
		g, err := hnsw.Build(vec.DatasetFromSlices(d.Train), nil, hnsw.Config{M: 16, EfConstruction: 200, Seed: s.seed})
		if err != nil {
			t.Fatal(err)
		}
		var plain float64
		for _, ef := range []int{20, 40, 80, 160, 320} {
			plain = recall(t, d, s.k, len(d.Queries), func(i int) ([]int, error) {
				res := g.Search(d.Queries[i], s.k, ef)
				ids := make([]int, len(res))
				for j, it := range res {
					ids[j] = it.ID
				}
				return ids, nil
			})
			if plain >= 0.9 {
				break
			}
		}
		dep := deploy(t, d, beta, s.seed)
		// The index raises a beam narrower than k′ = 16k to k′, so the
		// search for the recall target starts there.
		var ours float64
		for _, ef := range []int{16 * s.k, 32 * s.k, 64 * s.k} {
			if ours = dep.recall(t, s.k, core.SearchOptions{KPrime: 16 * s.k, EfSearch: ef}); ours >= 0.9 {
				break
			}
		}
		tb.printf("%-12s %12.3f %12.3f\n", d.Name, plain, ours)
	}
	s.check(t, "overhead", &tb)
}
