package hnsw

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"ppanns/internal/frame"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// saveBytes is the graph's persisted form, the strictest equality there is:
// build parameters, vectors, levels, every adjacency list in order, entry
// point — written as a stream of its own, trailer included.
func saveBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := frame.NewEncoder(&buf)
	g.Save(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// liveOf is g's liveness, as a database file's presence bytes state it.
func liveOf(g *Graph) []bool {
	live := make([]bool, g.IDs())
	for id := range live {
		live[id] = !g.Deleted(id)
	}
	return live
}

// loadBytes reads a stream saveBytes wrote: the section for the ids live
// marks, then the trailer.
func loadBytes(b []byte, dim int, live []bool) (*Graph, error) {
	d := frame.NewDecoder(bytes.NewReader(b))
	g, _, err := Load(d, dim, live)
	if err == nil {
		err = d.Done()
	}
	return g, err
}

// TestBuildDeterministicAcrossWorkers is the bulk build's contract: the
// graph is a function of (seed, vectors), whatever GOMAXPROCS is.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	data := clusteredData(31, 3000, 16, 8)
	cfg := Config{M: 12, EfConstruction: 80, Seed: 31}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 4, 3} {
		runtime.GOMAXPROCS(procs)
		g, err := build(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := saveBytes(t, g)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS=%d built a different graph than GOMAXPROCS=1", procs)
		}
	}
}

// insertOneByOne links data one point at a time, in id order, with the
// levels Build draws: the classic sequential HNSW construction.
func insertOneByOne(t *testing.T, data [][]float64, cfg Config) *Graph {
	t.Helper()
	g := newGraph(cfg, vec.DatasetFromSlices(data))
	g.dead = make([]bool, len(data))
	g.size = len(data)
	g.carve(drawLevels(g.cfg.Seed, g.mL, len(data)))
	ctx := new(searchCtx)
	ctx.vis.Grow(len(data))
	for id := range data {
		g.insertBatch([]*searchCtx{ctx}, []int32{int32(id)})
	}
	g.pack()
	return g
}

// TestBuildMatchesSequentialInserts pins the opening of the batch
// schedule: while the graph is small (the first 2·batchShare nodes) a
// build's batches are single points, so it produces the graph one-by-one
// insertion does.
func TestBuildMatchesSequentialInserts(t *testing.T) {
	data := clusteredData(32, 2*batchShare, 8, 3)
	cfg := Config{M: 6, EfConstruction: 40, Seed: 32}
	bulk, err := build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := insertOneByOne(t, data, cfg)
	if !bytes.Equal(saveBytes(t, bulk), saveBytes(t, seq)) {
		t.Fatal("Build and one-by-one insertion disagree on single-point batches")
	}
}

// TestBuildRecallAndEquivalence holds a bulk-built graph to recall@10 ≥
// 0.95, and its CSR search to the walk over the build's lists bit for bit —
// with dead slots, the full build's entry point among them.
func TestBuildRecallAndEquivalence(t *testing.T) {
	const n, dim, k = 4000, 16, 10
	data := clusteredData(33, n, dim, 12)
	g, err := build(data, Config{M: 16, EfConstruction: 200, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != n {
		t.Fatalf("Len = %d, want %d", g.Len(), n)
	}
	for i := 0; i < n; i += 997 {
		if vec.SqDist(g.Vector(i), data[i]) != 0 {
			t.Fatalf("graph id %d does not hold vector %d", i, i)
		}
	}
	r := rng.NewSeeded(34)
	queries := make([][]float64, 100)
	for i := range queries {
		queries[i] = vec.Add(nil, data[r.IntN(n)], rng.GaussianVec(r, dim, 0.5))
	}
	var total float64
	for _, q := range queries {
		res := g.Search(q, k, 100)
		ids := make([]int, len(res))
		for i, it := range res {
			ids[i] = it.ID
		}
		total += recallOf(ids, bruteForce(data, q, k, nil))
	}
	if rec := total / float64(len(queries)); rec < 0.95 {
		t.Fatalf("bulk-built graph recall@%d = %.3f, want >= 0.95", k, rec)
	}

	lists, csr := listsAndPacked(t, withDead(data, g.EntryPoint(), 7, 1234, n-1), queries, Config{M: 16, EfConstruction: 200, Seed: 33}, k, 60)
	for qi := range queries {
		sameItems(t, qi, csr[qi], lists[qi])
	}
}

func TestBuildEdgeCases(t *testing.T) {
	g, err := Build(vec.ZeroDataset(4, 0), nil, Config{})
	if err != nil || g.Len() != 0 || g.EntryPoint() != -1 {
		t.Fatalf("empty build: %v, len %d, entry %d", err, g.Len(), g.EntryPoint())
	}
	if _, err := Build(vec.ZeroDataset(2, 2), []bool{true}, Config{}); err == nil {
		t.Fatal("expected an error for a liveness of the wrong length")
	}
	one, err := build([][]float64{{1, 2}}, Config{})
	if err != nil || one.Len() != 1 || one.EntryPoint() != 0 {
		t.Fatalf("single-vector build: %v, len %d, entry %d", err, one.Len(), one.EntryPoint())
	}
}

// TestSaveLoadAfterDeletingEntry: with every node of the top level dead,
// the graph is one layer shorter, enters through a live node, and
// round-trips through Save and Load.
func TestSaveLoadAfterDeletingEntry(t *testing.T) {
	data := clusteredData(35, 500, 8, 4)
	cfg := Config{M: 8, EfConstruction: 60, Seed: 35}
	full, err := build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	top := full.Stats().MaxLevel
	if top == 0 {
		t.Fatal("test graph has a single layer; pick another seed")
	}
	var dead []int
	for id, lv := range full.levels {
		if int(lv) == top {
			dead = append(dead, id)
		}
	}
	g, err := build(withDead(data, dead...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats().MaxLevel >= top || g.Deleted(g.EntryPoint()) {
		t.Fatalf("max level %d (full build %d), entry %d dead=%v", g.Stats().MaxLevel, top, g.EntryPoint(), g.Deleted(g.EntryPoint()))
	}
	g2, err := loadBytes(saveBytes(t, g), 8, liveOf(g))
	if err != nil {
		t.Fatalf("graph built without its top level does not load: %v", err)
	}
	if g2.Len() != g.Len() || g2.EntryPoint() != g.EntryPoint() {
		t.Fatalf("loaded len/entry %d/%d, want %d/%d", g2.Len(), g2.EntryPoint(), g.Len(), g.EntryPoint())
	}
	q := data[3]
	a, b := g.Search(q, 5, 40), g2.Search(q, 5, 40)
	if len(a) != len(b) {
		t.Fatalf("result count differs after reload: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d differs after reload: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSaveLoadFuzzedMutations round-trips graphs built with random dead
// slots, down to the all-dead graph: whatever Build leaves behind, Load
// accepts and Save reproduces byte for byte.
func TestSaveLoadFuzzedMutations(t *testing.T) {
	const n = 160
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.NewSeeded(seed)
		data := clusteredData(seed, n, 6, 3)
		cfg := Config{M: 4, EfConstruction: 30, Seed: seed}
		full, err := build(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Always the full build's entry node, the case that broke, then
		// random ids until only (seed-1)/8 of the nodes are left.
		dead := map[int]bool{full.EntryPoint(): true}
		for len(dead) < n-int(seed-1)*n/8 {
			dead[r.IntN(n)] = true
		}
		rows, live := column(data)
		for id := range dead {
			live[id] = false
			clear(rows.At(id))
		}
		g, err := Build(rows, live, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := loadBytes(saveBytes(t, g), 6, liveOf(g))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(saveBytes(t, g2), saveBytes(t, g)) {
			t.Fatalf("seed %d: save → load → save changed the bytes", seed)
		}
	}
}

// BenchmarkHNSWBuild is the bulk build at the standing benchmark's shapes,
// default M and efConstruction, on GOMAXPROCS workers: deep (n = 8000,
// d = 96, embed-deep's index) and gist (n = 1500, d = 960, wire-gist's).
// Beside the time it reports the build's work per op: the rows its walks
// evaluated, the diversity checks it computed selecting new nodes' lists
// and re-selecting overflowing ones, and the re-selection checks the
// lists' memory answered.
func BenchmarkHNSWBuild(b *testing.B) {
	for _, c := range []struct {
		name             string
		n, dim, clusters int
		seed             uint64
	}{
		{"deep", 8000, 96, 40, 36},
		{"gist", 1500, 960, 40, 37},
	} {
		data := clusteredData(c.seed, c.n, c.dim, c.clusters)
		cfg := Config{Seed: c.seed}
		b.Run(c.name, func(b *testing.B) {
			var counts buildCounts
			for i := 0; i < b.N; i++ {
				rows, live := column(data)
				g, cs, err := buildLists(rows, live, cfg)
				if err != nil {
					b.Fatal(err)
				}
				g.pack()
				counts = cs
			}
			b.ReportMetric(float64(counts.beamRows), "beam_rows/op")
			b.ReportMetric(float64(counts.linkChecks), "link_checks/op")
			b.ReportMetric(float64(counts.mergeChecks), "merge_checks/op")
			b.ReportMetric(float64(counts.mergeKnown), "merge_known/op")
		})
	}
}

// buildGolden holds the SHA-256 (first 16 hex digits) of the Save bytes of
// two seeded builds, recorded before the build remembered its lists'
// distances and what their selections learned. Both shapes overflow lists
// on layers 0 and 1, so every merge path — append, re-select, computed and
// remembered checks — shapes them.
var buildGolden = map[string]string{
	"deep-d96-n3000": "572f7ee507c63a55",
	"gist-d960-n400": "3acfc5e643c06688",
}

// TestBuildGolden pins the bytes of two seeded builds, and that both
// re-selected lists with checks computed and checks remembered.
func TestBuildGolden(t *testing.T) {
	for _, c := range []struct {
		name                string
		n, dim, clusters, m int
		ef                  int
		seed                uint64
	}{
		{"deep-d96-n3000", 3000, 96, 24, 16, 100, 51},
		{"gist-d960-n400", 400, 960, 6, 8, 64, 52},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows, live := column(clusteredData(c.seed, c.n, c.dim, c.clusters))
			g, counts, err := buildLists(rows, live, Config{M: c.m, EfConstruction: c.ef, Seed: c.seed})
			if err != nil {
				t.Fatal(err)
			}
			if counts.mergeChecks == 0 || counts.mergeKnown == 0 {
				t.Fatalf("merges computed %d checks and remembered %d; the shape must do both", counts.mergeChecks, counts.mergeKnown)
			}
			g.pack()
			sum := sha256.Sum256(saveBytes(t, g))
			if got := hex.EncodeToString(sum[:8]); got != buildGolden[c.name] {
				t.Fatalf("Save digest %s, want %s", got, buildGolden[c.name])
			}
		})
	}
}
