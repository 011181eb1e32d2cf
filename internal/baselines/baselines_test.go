package baselines

import (
	"testing"

	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/hnsw"
	"ppanns/internal/index"
	"ppanns/internal/lsh"
)

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
func runSystem(t *testing.T, sys System, w *world, k int) (float64, Costs) {
	t.Helper()
	var total Costs
	got := make([][]int, len(w.queries))
	for i, q := range w.queries {
		ids, c, err := sys.Search(q, k)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		got[i] = ids
		total.Add(c)
	}
	return dataset.MeanRecall(got, w.gt), total
}

func TestRSSANN(t *testing.T) {
	w := newWorld(t, 2000, 20, 10)
	sys, err := NewRSSANN(w.data.Train, RSSANNConfig{
		LSH:    lsh.Config{Tables: 10, Hashes: 6, W: 1.0, Seed: 1},
		Probes: 4,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	recall, costs := runSystem(t, sys, w, 10)
	if recall < 0.6 {
		t.Fatalf("RS-SANN recall = %.3f, want ≥ 0.6", recall)
	}
	if costs.UserTime == 0 || costs.ServerTime == 0 {
		t.Fatalf("costs not attributed: %+v", costs)
	}
	if costs.DownloadBytes == 0 || costs.Candidates == 0 {
		t.Fatalf("transfer accounting empty: %+v", costs)
	}
	// The defining cost shape: RS-SANN ships ciphertexts and burns user
	// time on decryption — download must scale with candidates.
	perCand := costs.DownloadBytes / int64(costs.Candidates)
	wantCt := int64(16 + 8*w.data.Dim)
	if perCand != wantCt {
		t.Fatalf("per-candidate download %d bytes, want %d", perCand, wantCt)
	}
}

func TestRSSANNValidation(t *testing.T) {
	if _, err := NewRSSANN(nil, RSSANNConfig{}); err == nil {
		t.Fatal("expected error for empty database")
	}
	w := newWorld(t, 100, 1, 1)
	sys, err := NewRSSANN(w.data.Train, RSSANNConfig{LSH: lsh.Config{Seed: 2}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Search(make([]float64, 3), 1); err == nil {
		t.Fatal("expected error for wrong query dim")
	}
}

func TestPACMANN(t *testing.T) {
	w := newWorld(t, 1000, 10, 10)
	sys, err := NewPACMANN(w.data.Train, PACMANNConfig{
		Graph:     hnsw.Config{M: 12, EfConstruction: 100},
		Beam:      8,
		MaxRounds: 10,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	recall, costs := runSystem(t, sys, w, 10)
	if recall < 0.6 {
		t.Fatalf("PACM-ANN recall = %.3f, want ≥ 0.6", recall)
	}
	// The defining cost shape: multi-round interaction and server scans
	// proportional to fetches × database size.
	if costs.Rounds <= len(w.queries) {
		t.Fatalf("PACM-ANN not multi-round: %d rounds over %d queries", costs.Rounds, len(w.queries))
	}
	if costs.ServerTime == 0 || costs.UploadBytes == 0 {
		t.Fatalf("costs not attributed: %+v", costs)
	}
}

func TestPACMANNValidation(t *testing.T) {
	if _, err := NewPACMANN(nil, PACMANNConfig{}); err == nil {
		t.Fatal("expected error for empty database")
	}
	w := newWorld(t, 100, 1, 1)
	sys, err := NewPACMANN(w.data.Train, PACMANNConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Search(make([]float64, 3), 1); err == nil {
		t.Fatal("expected error for wrong query dim")
	}
}

func TestPRIANN(t *testing.T) {
	w := newWorld(t, 1500, 10, 10)
	sys, err := NewPRIANN(w.data.Train, PRIANNConfig{
		LSH:       lsh.Config{Tables: 8, Hashes: 6, W: 1.2, Seed: 5},
		BucketCap: 48,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	recall, costs := runSystem(t, sys, w, 10)
	if recall < 0.5 {
		t.Fatalf("PRI-ANN recall = %.3f, want ≥ 0.5", recall)
	}
	// Single-round by construction.
	if costs.Rounds != len(w.queries) {
		t.Fatalf("PRI-ANN rounds = %d, want %d (single round per query)", costs.Rounds, len(w.queries))
	}
	if costs.ServerTime == 0 || costs.UserTime == 0 {
		t.Fatalf("costs not attributed: %+v", costs)
	}
}

func TestPRIANNValidation(t *testing.T) {
	if _, err := NewPRIANN(nil, PRIANNConfig{}); err == nil {
		t.Fatal("expected error for empty database")
	}
	w := newWorld(t, 100, 1, 1)
	sys, err := NewPRIANN(w.data.Train, PRIANNConfig{LSH: lsh.Config{Seed: 6}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Search(make([]float64, 3), 1); err == nil {
		t.Fatal("expected error for wrong query dim")
	}
}

func TestOurs(t *testing.T) {
	w := newWorld(t, 2000, 20, 10)
	sys, err := NewOursFromData(w.data.Train, core.Params{
		Dim: w.data.Dim, Beta: 0.05, IndexOptions: index.Options{M: 12, EfConstruction: 150}, Seed: 7,
	}, core.SearchOptions{KPrime: 80, EfSearch: 150})
	if err != nil {
		t.Fatal(err)
	}
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

func TestOursValidation(t *testing.T) {
	if _, err := newOurs(nil, nil, core.SearchOptions{}); err == nil {
		t.Fatal("expected error for nil parties")
	}
}

func TestCostShapesAcrossSystems(t *testing.T) {
	// The qualitative claims behind Figures 7 and 9, at test scale:
	// ours is the fastest server-side and cheapest user-side system.
	w := newWorld(t, 1500, 8, 10)

	ours, err := NewOursFromData(w.data.Train, core.Params{
		Dim: w.data.Dim, Beta: 0.05, IndexOptions: index.Options{M: 12, EfConstruction: 120}, Seed: 8,
	}, core.SearchOptions{KPrime: 80, EfSearch: 120})
	if err != nil {
		t.Fatal(err)
	}
	pacm, err := NewPACMANN(w.data.Train, PACMANNConfig{
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
