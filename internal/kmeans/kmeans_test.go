package kmeans

import (
	"math"
	"runtime"
	"testing"

	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// separated generates k well-separated clusters of m points each.
func separated(seed uint64, k, m, dim int) ([][]float64, []int) {
	r := rng.NewSeeded(seed)
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = rng.GaussianVec(r, dim, 20)
	}
	var data [][]float64
	var labels []int
	for c := 0; c < k; c++ {
		for j := 0; j < m; j++ {
			data = append(data, vec.Add(nil, centers[c], rng.GaussianVec(r, dim, 0.5)))
			labels = append(labels, c)
		}
	}
	return data, labels
}

func TestValidation(t *testing.T) {
	if _, err := Fit(nil, Config{K: 2}); err == nil {
		t.Fatal("expected error for empty data")
	}
	data, _ := separated(1, 2, 5, 4)
	if _, err := Fit(data, Config{K: 0}); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := Fit(data, Config{K: 100}); err == nil {
		t.Fatal("expected error for k > n")
	}
}

func TestRecoverSeparatedClusters(t *testing.T) {
	const k = 6
	data, labels := separated(2, k, 60, 8)
	res, err := Fit(data, Config{K: k, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != k {
		t.Fatalf("%d centroids", len(res.Centroids))
	}
	// Points with the same true label must share an assignment almost
	// always (purity check).
	byLabel := map[int]map[int]int{}
	for i, a := range res.Assign {
		if byLabel[labels[i]] == nil {
			byLabel[labels[i]] = map[int]int{}
		}
		byLabel[labels[i]][a]++
	}
	pure := 0
	for _, counts := range byLabel {
		max, total := 0, 0
		for _, c := range counts {
			total += c
			if c > max {
				max = c
			}
		}
		if float64(max) >= 0.95*float64(total) {
			pure++
		}
	}
	if pure < k-1 {
		t.Fatalf("only %d/%d clusters recovered purely", pure, k)
	}
}

func TestAssignmentsAreNearest(t *testing.T) {
	data, _ := separated(3, 4, 40, 6)
	res, err := Fit(data, Config{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Assign {
		if got := Nearest(res.Centroids, data[i]); got != a {
			// Lloyd's last update can shift a centroid slightly; allow
			// distance ties only.
			da := vec.SqDist(data[i], res.Centroids[a])
			dg := vec.SqDist(data[i], res.Centroids[got])
			if dg < da*(1-1e-9) && da-dg > 1e-9 {
				t.Fatalf("point %d assigned %d but nearest is %d (%g vs %g)", i, a, got, da, dg)
			}
		}
	}
}

func TestNearestN(t *testing.T) {
	cents := [][]float64{{0, 0}, {10, 0}, {1, 0}, {5, 0}}
	got := NearestN(cents, []float64{0.4, 0}, 3)
	want := []int{0, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NearestN = %v, want %v", got, want)
		}
	}
	if n := len(NearestN(cents, []float64{0, 0}, 10)); n != 4 {
		t.Fatalf("NearestN overflow len = %d", n)
	}
}

func TestDeterministic(t *testing.T) {
	data, _ := separated(4, 3, 30, 5)
	a, err := Fit(data, Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(data, Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Centroids {
		if !vec.ApproxEqual(a.Centroids[i], b.Centroids[i], 0) {
			t.Fatal("same seed produced different clusterings")
		}
	}
}

func TestKEqualsN(t *testing.T) {
	data, _ := separated(5, 2, 3, 4)
	res, err := Fit(data, Config{K: len(data), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != len(data) {
		t.Fatalf("%d centroids for k=n", len(res.Centroids))
	}
}

// oldNearest is the nearest-centroid loop NearestFlat replaced — one
// dispatched vec.SqDist call per centroid row — kept as the test oracle.
func oldNearest(cents []float64, w int, v []float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for c := 0; c*w < len(cents); c++ {
		if d := vec.SqDist(cents[c*w:(c+1)*w], v); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// TestNearestFlatMatchesPerRow: index and distance bits of the flat routine
// equal the per-row loop's at widths on both sides of the inline cut-off,
// with exact ties (duplicate rows, equidistant rows) going to the lowest
// index in both.
func TestNearestFlatMatchesPerRow(t *testing.T) {
	r := rng.NewSeeded(21)
	for _, w := range []int{1, 2, 3, 5, 7, 8, 9, 96} {
		for _, k := range []int{1, 2, 17, 256, 300} {
			cents := rng.Gaussian(r, nil, k*w)
			// Duplicate rows and a mirrored pair make ties certain.
			if k >= 17 {
				copy(cents[9*w:10*w], cents[3*w:4*w])
				copy(cents[16*w:17*w], cents[3*w:4*w])
			}
			for trial := 0; trial < 50; trial++ {
				v := rng.Gaussian(r, nil, w)
				switch {
				case trial%5 == 1 && k >= 17:
					copy(v, cents[3*w:4*w]) // distance exactly 0 to three rows
				case trial%5 == 2 && k >= 2:
					for i := range v { // exactly between rows 0 and 1
						cents[i], cents[w+i] = v[i]-1, v[i]+1
					}
				}
				gotI, gotD := NearestFlat(cents, w, v)
				wantI, wantD := oldNearest(cents, w, v)
				if gotI != wantI || math.Float64bits(gotD) != math.Float64bits(wantD) {
					t.Fatalf("w=%d k=%d trial %d: flat (%d, %v), per-row (%d, %v)", w, k, trial, gotI, gotD, wantI, wantD)
				}
			}
		}
	}
}

// TestFitIndependentOfWorkers: the parallel assignment and seeding leave no
// trace of GOMAXPROCS in centroids, assignment or iteration count.
func TestFitIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	data, _ := separated(6, 7, 60, 12)
	var want *Result
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := Fit(data, Config{K: 9, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if got.Iters != want.Iters {
			t.Fatalf("iterations %d vs %d", got.Iters, want.Iters)
		}
		for i, v := range got.Flat {
			if math.Float64bits(v) != math.Float64bits(want.Flat[i]) {
				t.Fatalf("centroid float %d differs between GOMAXPROCS 1 and %d", i, procs)
			}
		}
		for i, c := range got.Assign {
			if c != want.Assign[i] {
				t.Fatalf("assignment of point %d differs between GOMAXPROCS 1 and %d", i, procs)
			}
		}
	}
}

var sinkNearest int

// BenchmarkNearestCentroid is the PQ training and encoding inner loop at
// its usual shape: 256 centroids of a 3-element subspace.
func BenchmarkNearestCentroid(b *testing.B) {
	const w, k = 3, 256
	r := rng.NewSeeded(1)
	cents := rng.Gaussian(r, nil, k*w)
	v := rng.Gaussian(r, nil, w)
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkNearest, _ = NearestFlat(cents, w, v)
		}
	})
	b.Run("per-row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkNearest, _ = oldNearest(cents, w, v)
		}
	})
}
