package bench

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"ppanns/internal/dataset"
)

func TestDefaultEfs(t *testing.T) {
	efs := defaultEfs(10)
	if !sort.IntsAreSorted(efs) {
		t.Fatalf("ef sweep not sorted: %v", efs)
	}
	if efs[0] < 1 {
		t.Fatalf("ef sweep starts below 1: %v", efs)
	}
	// Must scale with k.
	efs100 := defaultEfs(100)
	if efs100[len(efs100)-1] <= efs[len(efs)-1] {
		t.Fatalf("ef sweep does not scale with k: %v vs %v", efs, efs100)
	}
}

func TestFmtPoints(t *testing.T) {
	var buf bytes.Buffer
	fmtPoints(&buf, "label", []point{
		{Ef: 10, Recall: 0.5, QPS: 1234.5, Latency: time.Millisecond},
	})
	out := buf.String()
	for _, want := range []string{"label", "ef=10", "r=0.500", "qps=1234.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fmtPoints output missing %q: %s", want, out)
		}
	}
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

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.N != 8000 || c.Queries != 50 || c.K != 10 || c.Seed != 42 {
		t.Fatalf("defaults = %+v", c)
	}
	c = Config{N: 5, Queries: 2, K: 1, Seed: 9}.withDefaults()
	if c.N != 5 || c.Queries != 2 || c.K != 1 || c.Seed != 9 {
		t.Fatalf("explicit values overridden: %+v", c)
	}
}

func TestDatasetsHelper(t *testing.T) {
	cfg := Config{N: 100, Queries: 4, Seed: 1}.withDefaults()
	ds, err := cfg.datasets("sift", "deep")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || ds[0].Dim != 128 || ds[1].Dim != 96 {
		t.Fatalf("datasets helper wrong: %d sets", len(ds))
	}
	cfg.Datasets = []string{"unknown"}
	if _, err := cfg.datasets("sift"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	// GIST default cap.
	cfg = Config{N: 8000, Queries: 4, Seed: 1}.withDefaults()
	cfg.Datasets = []string{"gist"}
	ds, err = cfg.datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds[0].Train) != 4000 {
		t.Fatalf("gist cap not applied: n=%d", len(ds[0].Train))
	}
}

func TestIndexesTiny(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyCfg(&buf)
	cfg.Datasets = []string{"deep"}
	if err := Indexes(cfg); err != nil {
		t.Fatal(err)
	}
	// The ablation reports the flat-scan floor, the serving backends and the
	// two comparison points, in this order: the rows below the header line,
	// up to the blank line that ends the table.
	var rows []string
	table := false
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "backend "):
			table = true
		case table && line == "":
			table = false
		case table:
			rows = append(rows, strings.Fields(line)[0])
		}
	}
	if want := []string{"flat-scan", "hnsw", "ivf", "lsh", "nsg"}; !slices.Equal(rows, want) {
		t.Fatalf("indexes rows %v, want %v:\n%s", rows, want, buf.String())
	}
}
