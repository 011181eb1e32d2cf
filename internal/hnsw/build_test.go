package hnsw

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"ppanns/internal/frame"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// saveBytes is the graph's persisted form, the strictest equality there is
// on its topology: build parameters, levels, every adjacency list in
// order, entry point — written as a stream of its own, trailer included.
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

// loadBytes reads a stream saveBytes wrote: the section for a graph over
// rows, then the trailer.
func loadBytes(b []byte, rows *vec.Dataset) (*Graph, error) {
	d := frame.NewDecoder(bytes.NewReader(b))
	g, err := Load(d, rows)
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
	g.carve(drawLevels(g.cfg.Seed, g.mL, len(data), nil))
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
// with ids deleted, the full build's entry point among them.
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
	if _, err := Build(vec.ZeroDataset(2, 2), []int32{0}, Config{}); err == nil {
		t.Fatal("expected an error for ids of the wrong length")
	}
	one, err := build([][]float64{{1, 2}}, Config{})
	if err != nil || one.Len() != 1 || one.EntryPoint() != 0 {
		t.Fatalf("single-vector build: %v, len %d, entry %d", err, one.Len(), one.EntryPoint())
	}
}

// TestSaveLoadAfterDeletingEntry: with every node of the top level
// deleted, the graph is one layer shorter, enters through a node that
// remains, and round-trips through Save and Load.
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
	if g.Stats().MaxLevel >= top || g.EntryPoint() < 0 {
		t.Fatalf("max level %d (full build %d), entry %d", g.Stats().MaxLevel, top, g.EntryPoint())
	}
	g2, err := loadBytes(saveBytes(t, g), g.data)
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

// TestSaveLoadFuzzedMutations round-trips graphs built over the rows left
// after random deletions, down to the empty graph: whatever Build leaves
// behind, Load accepts and Save reproduces byte for byte.
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
		rows, ids := vec.NewDataset(6, n), []int32{}
		for id, v := range data {
			if !dead[id] {
				rows.Append(v)
				ids = append(ids, int32(id))
			}
		}
		g, err := Build(rows, ids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := loadBytes(saveBytes(t, g), rows)
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
				rows, ids := column(data)
				g, cs, err := buildLists(rows, ids, cfg)
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

// digest hashes what a build decides: the entry point and the top layer,
// every id's level, then every layer's lists in id order, each its length
// and its members in order (empty above an id's level).
func (g *Graph) digest() string {
	h := sha256.New()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(g.entry))
	word(uint64(g.maxLevel))
	for _, level := range g.levels {
		word(uint64(level))
	}
	for l := range g.layers {
		for id := range g.levels {
			lst := g.layers[l].neighbors(id)
			word(uint64(len(lst)))
			for _, nb := range lst {
				binary.LittleEndian.PutUint32(b[:4], uint32(nb))
				h.Write(b[:4])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// buildGolden holds digest's value for two seeded builds. Both shapes
// overflow lists on layers 0 and 1, so every merge path — append,
// re-select, computed and remembered checks — shapes them. The digests
// once hashed the Save bytes, which moved with the file layout although
// no graph did; they were re-captured at commit e77d75f by running digest
// on the builds its Save digests pinned, so they pin the same graphs.
var buildGolden = map[string]string{
	"deep-d96-n3000": "ed44d5d7013df865",
	"gist-d960-n400": "55414fcecbb3916c",
}

// TestBuildGolden pins the graphs of two seeded builds, and that both
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
			rows, ids := column(clusteredData(c.seed, c.n, c.dim, c.clusters))
			g, counts, err := buildLists(rows, ids, Config{M: c.m, EfConstruction: c.ef, Seed: c.seed})
			if err != nil {
				t.Fatal(err)
			}
			if counts.mergeChecks == 0 || counts.mergeKnown == 0 {
				t.Fatalf("merges computed %d checks and remembered %d; the shape must do both", counts.mergeChecks, counts.mergeKnown)
			}
			g.pack()
			if got := g.digest(); got != buildGolden[c.name] {
				t.Fatalf("graph digest %s, want %s", got, buildGolden[c.name])
			}
		})
	}
}
