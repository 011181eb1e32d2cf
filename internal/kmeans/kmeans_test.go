package kmeans

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"ppanns/internal/dataset"
	"ppanns/internal/dcpe"
	"ppanns/internal/kerneltest"
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
	if len(res.Flat) != k*len(data[0]) {
		t.Fatalf("%d centroid floats", len(res.Flat))
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
	dim := len(data[0])
	for i, a := range res.Assign {
		if got, dg := NearestFlat(res.Flat, dim, data[i]); got != a {
			// Lloyd's last update can shift a centroid slightly; allow
			// distance ties only.
			da := vec.SqDist(data[i], res.Flat[a*dim:(a+1)*dim])
			if dg < da*(1-1e-9) && da-dg > 1e-9 {
				t.Fatalf("point %d assigned %d but nearest is %d (%g vs %g)", i, a, got, da, dg)
			}
		}
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
	if !kerneltest.ApproxEqual(a.Flat, b.Flat, 0) {
		t.Fatal("same seed produced different clusterings")
	}
}

func TestKEqualsN(t *testing.T) {
	data, _ := separated(5, 2, 3, 4)
	res, err := Fit(data, Config{K: len(data), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flat) != len(data)*len(data[0]) {
		t.Fatalf("%d centroid floats for k=n", len(res.Flat))
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

// fitFullScan is Fit as it was before the pruned search: k-means++ offering
// every seed to every point, then Lloyd scanning every centroid for every
// point, each on one goroutine. The test oracle for Fit.
func fitFullScan(data [][]float64, cfg Config) *Result {
	dim, n := len(data[0]), len(data)
	r := rng.NewSeeded(cfg.Seed ^ 0x43a9)
	var evals int64

	cents := make([]float64, 0, cfg.K*dim)
	cents = append(cents, data[r.IntN(n)]...)
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for len(cents) < cfg.K*dim {
		c := cents[len(cents)-dim:]
		var total float64
		for i := range d2 {
			if d := vec.SqDist(data[i], c); d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		evals += int64(n)
		pick := 0
		if total <= 0 {
			pick = r.IntN(n)
		} else {
			pick = weightedPick(d2, r.Float64()*total)
		}
		cents = append(cents, data[pick]...)
	}

	next := make([]float64, len(cents))
	assign := make([]int, n)
	counts := make([]int, cfg.K)
	var iters int
	for iters = 0; iters < cfg.MaxIters; iters++ {
		for i := range data {
			assign[i], _ = NearestFlat(cents, dim, data[i])
		}
		evals += int64(n * cfg.K)
		clear(next)
		clear(counts)
		for i, c := range assign {
			row := next[c*dim : (c+1)*dim]
			vec.Add(row, row, data[i])
			counts[c]++
		}
		moved := false
		for c := range counts {
			row := next[c*dim : (c+1)*dim]
			if counts[c] == 0 {
				copy(row, data[r.IntN(n)])
			} else {
				vec.Scale(row, 1/float64(counts[c]), row)
			}
			if !slices.Equal(row, cents[c*dim:(c+1)*dim]) {
				moved = true
			}
		}
		cents, next = next, cents
		if !moved {
			iters++
			break
		}
	}
	return &Result{Flat: cents, Assign: assign, Stats: Stats{Iters: iters, DistEvals: evals}}
}

// TestFitMatchesFullScan: Fit returns the full-scan Lloyd's centroid bits,
// assignment and iteration count — on separated clusters, on structureless
// data, at widths on both sides of the WideRow cut, through empty-cluster
// re-seeds (duplicate points make duplicate seeds, and a tie leaves the
// higher one empty), K = 1 and K = n, on one core and four
// (two cases are large enough to fan out). Wide rows evaluate fewer
// distances doing it; short rows evaluate exactly n per seed and n·K per
// later iteration, n·K·Iters in all: the block kernel offers every centroid
// to every point.
func TestFitMatchesFullScan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rng.NewSeeded(77)
	gauss := func(n, dim int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = rng.GaussianVec(r, dim, 1)
		}
		return out
	}
	clustered, _ := separated(8, 12, 80, 16)
	short, _ := separated(9, 30, 40, 3)
	// Enough points that both shapes are cut into several spans.
	wide := sapLike(t, 3000, 10)
	long, _ := separated(11, 40, 750, 3)
	dups := gauss(6, 5)
	for len(dups) < 300 {
		dups = append(dups, dups[r.IntN(6)])
	}
	for _, c := range []struct {
		name     string
		data     [][]float64
		cfg      Config
		reseeds  bool
		fewEvals bool
	}{
		{name: "clustered", data: clustered, cfg: Config{K: 30, MaxIters: 12, Seed: 1}, fewEvals: true},
		{name: "short rows", data: short, cfg: Config{K: 64, MaxIters: 8, Seed: 2}},
		{name: "wide, several spans", data: wide, cfg: Config{K: 50, MaxIters: 6, Seed: 8}, fewEvals: true},
		{name: "short rows, several spans", data: long, cfg: Config{K: 64, MaxIters: 4, Seed: 9}},
		{name: "structureless", data: gauss(700, 24), cfg: Config{K: 40, MaxIters: 6, Seed: 3}},
		{name: "duplicates", data: dups, cfg: Config{K: 20, MaxIters: 5, Seed: 5}, reseeds: true},
		{name: "k=1", data: short, cfg: Config{K: 1, MaxIters: 3, Seed: 6}},
		{name: "k=n", data: short[:50], cfg: Config{K: 50, MaxIters: 3, Seed: 7}},
	} {
		cfg := c.cfg
		want := fitFullScan(c.data, cfg)
		if c.reseeds {
			counts := make([]int, cfg.K)
			for _, a := range want.Assign {
				counts[a]++
			}
			empty := 0
			for _, n := range counts {
				if n == 0 {
					empty++
				}
			}
			if empty == 0 {
				t.Fatalf("%s: the oracle's last assignment has no empty cluster: the case re-seeds nothing", c.name)
			}
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := Fit(c.data, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iters != want.Iters {
				t.Fatalf("%s GOMAXPROCS=%d: %d iterations, full scan %d", c.name, procs, got.Iters, want.Iters)
			}
			for i, v := range got.Flat {
				if math.Float64bits(v) != math.Float64bits(want.Flat[i]) {
					t.Fatalf("%s GOMAXPROCS=%d: centroid float %d is %v, full scan %v", c.name, procs, i, v, want.Flat[i])
				}
			}
			for i, a := range got.Assign {
				if a != want.Assign[i] {
					t.Fatalf("%s GOMAXPROCS=%d: point %d assigned %d, full scan %d", c.name, procs, i, a, want.Assign[i])
				}
			}
			if c.fewEvals && got.DistEvals*4 > want.DistEvals {
				t.Errorf("%s: %d distance evaluations, full scan %d: nothing was pruned", c.name, got.DistEvals, want.DistEvals)
			}
			if n := int64(len(c.data)); len(c.data[0]) < WideRow && got.DistEvals != n*int64(cfg.K*got.Iters) {
				t.Errorf("%s: %d distance evaluations, want n·K·Iters = %d", c.name, got.DistEvals, n*int64(cfg.K*got.Iters))
			}
		}
	}
}

// TestFitStopsAtFixedPoint: a run on clustered data settles before
// MaxIters, at the first iteration that moved no centroid. Raising MaxIters
// by 10 changes nothing, bit for bit; capping the run one iteration short
// leaves the same centroids (the last iteration moved none), and two short
// changes them (the one before it moved some).
func TestFitStopsAtFixedPoint(t *testing.T) {
	clustered, _ := separated(8, 12, 80, 16)
	cfg := Config{K: 20, MaxIters: 50, Seed: 4}
	got, err := Fit(clustered, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iters >= cfg.MaxIters || got.Iters < 3 {
		t.Fatalf("%d iterations of %d: want a run that settles after a few", got.Iters, cfg.MaxIters)
	}
	fit := func(maxIters int) *Result {
		t.Helper()
		c := cfg
		c.MaxIters = maxIters
		r, err := Fit(clustered, c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	sameFlat := func(a, b *Result) bool {
		for i, v := range a.Flat {
			if math.Float64bits(v) != math.Float64bits(b.Flat[i]) {
				return false
			}
		}
		return true
	}
	more := fit(cfg.MaxIters + 10)
	if more.Iters != got.Iters || !sameFlat(more, got) || !slices.Equal(more.Assign, got.Assign) {
		t.Errorf("MaxIters %d: %d iterations or its centroids or assignment differ from MaxIters %d's %d",
			cfg.MaxIters+10, more.Iters, cfg.MaxIters, got.Iters)
	}
	if !sameFlat(fit(got.Iters-1), got) {
		t.Errorf("capped at %d iterations the centroids differ: iteration %d moved some, yet the run went on", got.Iters-1, got.Iters)
	}
	if sameFlat(fit(got.Iters-2), got) {
		t.Errorf("capped at %d iterations the centroids are the same: the run did not stop at its first fixed point", got.Iters-2)
	}
}

var sinkNearest int

// BenchmarkNearestCentroid is the PQ training and encoding inner loop at
// its usual shape: 256 centroids of a 3-element subspace. flat and per-row
// find one point's nearest centroid; block offers all 256 centroids to a
// transposed block of 256 points, and seed-sweep one centroid to 8192
// points — a k-means++ update at PQ's sample size. The block cases offer
// to a running best, as seeding does, and report ns/point.
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
	for _, c := range []struct {
		name string
		n, k int
	}{{"block", 256, k}, {"seed-sweep", 8192, 1}} {
		b.Run(c.name, func(b *testing.B) {
			pts := rng.Gaussian(r, nil, c.n*w)
			idx, dist := make([]int, c.n), make([]float64, c.n)
			NearestBlock(idx, dist, pts, c.n, w, cents[:c.k*w])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nearestBlock(dist, idx, pts, c.n, w, cents[:c.k*w], 0)
			}
			sinkNearest = idx[0]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/point")
		})
	}
}

// sapLike returns n deep-like (d = 96) vectors under SAP encryption at the
// standing benchmark's operating point (s = 1024, β = 0.5): what k-means
// clusters in a build.
func sapLike(tb testing.TB, n int, seed uint64) [][]float64 {
	tb.Helper()
	d := dataset.DeepLike(n, 0, seed)
	key, err := dcpe.KeyGen(rng.NewSeeded(seed), d.Dim, 1024, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]float64, n)
	for i, v := range d.Train {
		out[i] = key.Encrypt(v)
	}
	return out
}

// BenchmarkKMeansFit is one Fit at the two shapes of a scale-pq build: the
// IVF quantizer (every point, √n lists, full width) and one PQ subspace
// (the 8192-point training sample, 256 centroids, three columns).
func BenchmarkKMeansFit(b *testing.B) {
	sap := sapLike(b, 30000, 1)
	sub := make([][]float64, 8192)
	for i := range sub {
		sub[i] = sap[i][:3:3]
	}
	for _, c := range []struct {
		name string
		data [][]float64
		cfg  Config
	}{
		{"ivf", sap, Config{K: 173, MaxIters: 20, Seed: 1}},
		{"pq-subspace", sub, Config{K: 256, MaxIters: 8, Seed: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Fit(c.data, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				sinkNearest = res.Iters
			}
		})
	}
}
