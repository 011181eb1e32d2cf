package ivf

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"ppanns/internal/dataset"
	"ppanns/internal/kmeans"
	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// column lays vectors out as Build takes them: the non-nil rows, in
// order, so a nil row is a record a fold left out.
func column(dim int, vectors [][]float64) *vec.Dataset {
	rows := vec.NewDataset(dim, len(vectors))
	for _, v := range vectors {
		if v != nil {
			rows.Append(v)
		}
	}
	return rows
}

// build is Build over column(dim, vectors).
func build(dim int, vectors [][]float64, cfg Config) (*Index, error) {
	return Build(column(dim, vectors), cfg)
}

// rebuild is Rebuild over a column of ix's dimension holding vectors.
func (ix *Index) rebuild(vectors [][]float64) (*Index, error) {
	return ix.Rebuild(column(ix.data.Dim(), vectors))
}

func buildIndex(t *testing.T, n int) (*Index, *dataset.Data) {
	t.Helper()
	d := dataset.DeepLike(n, 20, 31)
	ix, err := build(d.Dim, d.Train, Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return ix, d
}

// TestValidation: a build over no row has no lists and answers nothing,
// whatever its probe budget.
func TestValidation(t *testing.T) {
	ix, err := Build(vec.ZeroDataset(4, 0), Config{})
	if err != nil || ix.Lists() != 0 || ix.Len() != 0 {
		t.Fatalf("empty build: %v, %d lists, Len %d", err, ix.Lists(), ix.Len())
	}
	if items := ix.SearchInto(nil, make([]float64, 4), 3, 8); len(items) != 0 {
		t.Fatalf("empty index answered %v", items)
	}
}

func TestRecallImprovesWithNProbe(t *testing.T) {
	ix, d := buildIndex(t, 3000)
	gt := d.GroundTruth(10)
	measure := func(nprobe int) float64 {
		var recall float64
		for qi, q := range d.Queries {
			items := ix.SearchInto(nil, q, 10, nprobe)
			ids := make([]int, len(items))
			for i, it := range items {
				ids[i] = it.ID
			}
			recall += dataset.Recall(ids, gt[qi])
		}
		return recall / float64(len(d.Queries))
	}
	r1 := measure(1)
	r8 := measure(8)
	rAll := measure(ix.Lists())
	if r8 < r1 {
		t.Fatalf("recall fell with more probes: %.3f vs %.3f", r1, r8)
	}
	if rAll < 0.999 {
		t.Fatalf("probing all lists must be exact, got %.3f", rAll)
	}
	if r8 < 0.6 {
		t.Fatalf("nprobe=8 recall = %.3f, want ≥ 0.6", r8)
	}
}

func TestResultsSorted(t *testing.T) {
	ix, d := buildIndex(t, 800)
	items := ix.SearchInto(nil, d.Queries[0], 10, 8)
	for i := 1; i < len(items); i++ {
		if items[i].Dist < items[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
}

// TestProbesNearestCentroids: a search scans the nprobe lists whose
// centroids are closest to the query, all of them when nprobe exceeds the
// list count, and of two equidistant centroids the lower-numbered one.
// Each list holds one member, at its centroid, so the answer names the
// lists probed.
func TestProbesNearestCentroids(t *testing.T) {
	probed := func(cents [][]float64, q []float64, nprobe int) []int {
		ix := &Index{cents: slices.Concat(cents...)}
		ix.populate(vec.DatasetFromSlices(cents), []int{0, 1, 2, 3}[:len(cents)])
		var ids []int
		for _, it := range ix.SearchInto(nil, q, len(cents), nprobe) {
			ids = append(ids, it.ID)
		}
		return ids
	}
	cents := [][]float64{{0, 0}, {10, 0}, {1, 0}, {5, 0}}
	if got, want := probed(cents, []float64{0.4, 0}, 3), []int{0, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("nprobe=3 scanned lists %v, want %v", got, want)
	}
	if got, want := probed(cents, []float64{0, 0}, 10), []int{0, 2, 3, 1}; !slices.Equal(got, want) {
		t.Fatalf("nprobe=10 over 4 lists scanned %v, want %v", got, want)
	}
	if got, want := probed([][]float64{{0, 0}, {0.8, 0}}, []float64{0.4, 0}, 1), []int{0}; !slices.Equal(got, want) {
		t.Fatalf("nprobe=1 between equidistant centroids scanned %v, want %v", got, want)
	}
}

// TestAddAndDelete: a vector added by a rebuild over the grown set is
// found at the next position; a rebuild over the rows without it holds it
// in no list and no row. A rebuild over no row is empty, and an empty
// index rebuilds over vectors by training a quantizer of its own.
func TestAddAndDelete(t *testing.T) {
	built, d := buildIndex(t, 500)
	r := rng.NewSeeded(7)
	novel := vec.Normalize(rng.GaussianVec(r, d.Dim, 1))
	grown := append(append([][]float64(nil), d.Train...), novel)
	ix, err := built.rebuild(grown)
	if err != nil {
		t.Fatal(err)
	}
	const id = 500
	items := ix.SearchInto(nil, novel, 1, ix.Lists())
	if len(items) != 1 || items[0].ID != id {
		t.Fatalf("inserted vector not found: %+v", items)
	}
	grown[id] = nil
	gone, err := ix.rebuild(grown)
	if err != nil {
		t.Fatal(err)
	}
	items = gone.SearchInto(nil, novel, 1, gone.Lists())
	if len(items) != 1 || slices.Equal(gone.Vector(items[0].ID), novel) {
		t.Fatalf("the deleted vector answered: %+v", items)
	}
	if gone.Vector(id) != nil || len(gone.ids) != 500 {
		t.Fatal("the deleted vector kept its row or its list entry")
	}
	if ix.Len() != 501 || gone.Len() != 500 || built.Len() != 500 {
		t.Fatalf("Len = %d, %d, built %d", ix.Len(), gone.Len(), built.Len())
	}

	empty, err := gone.rebuild(make([][]float64, 3))
	if err != nil || empty.Len() != 0 || len(empty.SearchInto(nil, novel, 1, 8)) != 0 {
		t.Fatalf("rebuild over no row: %v, Len %d", err, empty.Len())
	}
	bare, err := build(d.Dim, make([][]float64, 3), Config{})
	if err != nil || bare.Lists() != 0 || bare.Len() != 0 {
		t.Fatalf("build over no row: %v, %d lists, Len %d", err, bare.Lists(), bare.Len())
	}
	refilled, err := bare.rebuild(d.Train)
	if err != nil || refilled.Len() != 500 || refilled.Lists() == 0 {
		t.Fatalf("rebuilding an empty index: %v, Len %d", err, refilled.Len())
	}
	if items := refilled.SearchInto(nil, d.Train[9], 1, refilled.Lists()); len(items) != 1 || items[0].ID != 9 {
		t.Fatalf("refilled index self-query: %+v", items)
	}
}

func TestDimMismatchPanics(t *testing.T) {
	ix, _ := buildIndex(t, 200)
	for name, fn := range map[string]func(){
		"Rebuild": func() { ix.Rebuild(vec.ZeroDataset(3, 1)) },
		"Search":  func() { ix.SearchInto(nil, make([]float64, 3), 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestListsCoverAllVectors(t *testing.T) {
	ix, _ := buildIndex(t, 700)
	seen := make([]bool, 700)
	for c := 0; c < ix.Lists(); c++ {
		for _, id := range ix.list(c) {
			if seen[id] {
				t.Fatalf("id %d listed twice", id)
			}
			seen[id] = true
		}
	}
	if len(ix.ids) != 700 {
		t.Fatalf("lists hold %d entries, want 700", len(ix.ids))
	}
}

// TestSearchIntoAllocationFree guards the pooled scan path.
func TestSearchIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	ix, d := buildIndex(t, 800)
	var dst []resultheap.Item
	dst = ix.SearchInto(dst, d.Queries[0], 10, 8) // warm pools
	allocs := testing.AllocsPerRun(20, func() {
		dst = ix.SearchInto(dst[:0], d.Queries[1], 10, 8)
	})
	if allocs > 1 { // tolerate one pool refill if GC lands mid-run
		t.Fatalf("warm SearchInto allocates %.1f times per run", allocs)
	}
}

// digest hashes what a build decides: the centroid bits, then every list's
// length and members in order.
func (ix *Index) digest() string {
	h := sha256.New()
	var b [8]byte
	for _, v := range ix.cents {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for c := 0; c < ix.Lists(); c++ {
		lst := ix.list(c)
		binary.LittleEndian.PutUint64(b[:], uint64(len(lst)))
		h.Write(b[:])
		for _, id := range lst {
			binary.LittleEndian.PutUint32(b[:4], uint32(id))
			h.Write(b[:4])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestBuildGolden pins the quantizer and the lists to what the full-scan
// k-means produced before the pruned search replaced it (digests recorded at
// that commit), on raw and on SAP-scaled corpora, on one core and four. The
// deep case's digest was recorded later, at commit 67d8c42.
func TestBuildGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sift := dataset.SIFTLike(2500, 0, 8).Train
	deep := dataset.DeepLike(4000, 0, 9).Train
	scaled := make([][]float64, len(deep))
	for i, v := range deep {
		scaled[i] = vec.Scale(nil, 1024, v)
	}
	for _, c := range []struct {
		name string
		data [][]float64
		cfg  Config
		want string
	}{
		{"sift", sift, Config{Seed: 8}, "c4476a27224a5e73"},
		{"deep", deep, Config{Seed: 9}, "f9fe82edcab98eb8"},
		{"deep×1024", scaled, Config{Seed: 10}, "6b008f41ac4067b0"},
	} {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			ix, err := build(len(c.data[0]), c.data, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := ix.digest(); got != c.want {
				t.Errorf("%s GOMAXPROCS=%d: digest %s, want %s", c.name, procs, got, c.want)
			}
		}
	}
}

// TestRebuildMatchesAdd: the fold primitive puts every vector in the list
// a one-at-a-time nearest-centroid insert would have — the full scan's
// choice, in id order — whether the rows are the receiver's own (a fold
// that dropped none: the guess is the old list), renumbered (a fold that
// dropped some, or an offline compaction: the guess is wrong) or new, on
// one core and four, at d = 96 and at d = 3.
func TestRebuildMatchesAdd(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	built, d := buildIndex(t, 1500)
	dead := append([][]float64(nil), d.Train...)
	for _, id := range []int{3, 700, 1499} {
		dead[id] = nil
	}
	ix, err := built.rebuild(dead)
	if err != nil {
		t.Fatal(err)
	}
	extra := dataset.DeepLike(200, 0, 32).Train
	grown := append(append([][]float64(nil), d.Train...), extra...)
	var shrunk [][]float64
	for i, v := range d.Train {
		if i%3 != 0 {
			shrunk = append(shrunk, v)
		}
	}
	check := func(ix *Index, name string, vectors [][]float64) {
		t.Helper()
		vectors = slices.DeleteFunc(slices.Clone(vectors), func(v []float64) bool { return v == nil })
		want := make([][]int32, ix.Lists())
		for i, v := range vectors {
			c, _ := kmeans.NearestFlat(ix.cents, ix.data.Dim(), v)
			want[c] = append(want[c], int32(i))
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := ix.rebuild(vectors)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != len(vectors) {
				t.Fatalf("%s: rebuilt index holds %d vectors, want %d", name, got.Len(), len(vectors))
			}
			for c := range want {
				if !slices.Equal(got.list(c), want[c]) {
					t.Fatalf("%s GOMAXPROCS=%d: list %d is %v, want %v", name, procs, c, got.list(c), want[c])
				}
			}
			for i, v := range vectors {
				if !slices.Equal(got.Vector(i), v) {
					t.Fatalf("%s: vector %d changed across the rebuild", name, i)
				}
			}
		}
	}
	for name, vectors := range map[string][][]float64{"same ids": d.Train, "deleted": dead, "grown": grown, "renumbered": shrunk} {
		check(ix, name, vectors)
	}
	// Below kmeans.WideRow dimensions every centroid is scanned.
	short := make([][]float64, len(grown))
	for i, v := range grown {
		short[i] = v[:3:3]
	}
	narrow, err := build(3, short[:1000], Config{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	short[5] = nil
	check(narrow, "d=3", short)
	if ix.Len() != 1497 {
		t.Fatalf("Rebuild changed its receiver: %d vectors", ix.Len())
	}
}
