package dataset

import (
	"math"
	"testing"

	"ppanns/internal/kerneltest"
	"ppanns/internal/vec"
)

func TestGeneratorsShapes(t *testing.T) {
	cases := []struct {
		data *Data
		dim  int
	}{
		{SIFTLike(200, 10, 1), 128},
		{GISTLike(100, 10, 1), 960},
		{GloVeLike(200, 10, 1), 100},
		{DeepLike(200, 10, 1), 96},
	}
	for _, c := range cases {
		if c.data.Dim != c.dim {
			t.Errorf("%s: dim %d, want %d", c.data.Name, c.data.Dim, c.dim)
		}
		if len(c.data.Train) == 0 || len(c.data.Queries) != 10 {
			t.Errorf("%s: sizes %d/%d", c.data.Name, len(c.data.Train), len(c.data.Queries))
		}
		for _, v := range c.data.Train[:5] {
			if len(v) != c.dim {
				t.Errorf("%s: vector dim %d", c.data.Name, len(v))
			}
		}
	}
}

func TestSIFTLikeValueRange(t *testing.T) {
	d := SIFTLike(300, 5, 2)
	for _, v := range d.Train {
		for _, x := range v {
			if x < 0 || x > 255 || x != math.Round(x) {
				t.Fatalf("SIFT-like coordinate %v outside integer [0,255]", x)
			}
		}
	}
}

func TestDeepLikeNormalized(t *testing.T) {
	d := DeepLike(200, 5, 3)
	for _, v := range d.Train {
		if math.Abs(vec.Norm(v)-1) > 1e-9 {
			t.Fatalf("Deep-like vector has norm %v", vec.Norm(v))
		}
	}
}

func TestGISTLikeLowIntrinsicDim(t *testing.T) {
	// Coordinates must be strongly correlated: the variance of coordinate
	// sums should far exceed the sum of independent variances... simply
	// check values live in the documented [0, 1.5] band and are not
	// degenerate.
	d := GISTLike(200, 5, 4)
	var min, max float64 = math.Inf(1), math.Inf(-1)
	for _, v := range d.Train {
		for _, x := range v {
			min = math.Min(min, x)
			max = math.Max(max, x)
		}
	}
	if min < 0 || max > 1.5 || max-min < 0.05 {
		t.Fatalf("GIST-like range [%v, %v] implausible", min, max)
	}
}

func TestGloVeLikeZeroMean(t *testing.T) {
	d := GloVeLike(2000, 5, 5)
	var mean float64
	count := 0
	for _, v := range d.Train {
		for _, x := range v {
			mean += x
			count++
		}
	}
	mean /= float64(count)
	if math.Abs(mean) > 0.3 {
		t.Fatalf("GloVe-like mean %v, want ≈0", mean)
	}
}

func TestClusteredness(t *testing.T) {
	// Within a clustered corpus, a point's nearest neighbor must on
	// average be far closer than a random pair — the property HNSW
	// performance depends on.
	d := DeepLike(1000, 0, 6)
	var nnDist, randDist float64
	const samples = 50
	for i := 0; i < samples; i++ {
		q := d.Train[i]
		best := math.Inf(1)
		for j, v := range d.Train {
			if j == i {
				continue
			}
			if dd := vec.SqDist(q, v); dd < best {
				best = dd
			}
		}
		nnDist += best
		randDist += vec.SqDist(q, d.Train[(i*37+101)%len(d.Train)])
	}
	if nnDist >= randDist*0.6 {
		t.Fatalf("data not clustered: mean NN %v vs random %v", nnDist/samples, randDist/samples)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"sift", "gist", "glove", "deep"} {
		d, err := ByName(name, 50, 5, 7)
		if err != nil || d == nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("mnist", 50, 5, 7); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestExactKNN(t *testing.T) {
	data := [][]float64{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	got := ExactKNN(data, []float64{1.4, 0}, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ExactKNN = %v", got)
	}
	// k larger than the dataset.
	got = ExactKNN(data, []float64{0, 0}, 10)
	if len(got) != 4 || got[0] != 0 {
		t.Fatalf("ExactKNN overflow = %v", got)
	}
}

func TestGroundTruthMatchesExact(t *testing.T) {
	d := GloVeLike(500, 20, 9)
	gt := d.GroundTruth(5)
	if len(gt) != 20 {
		t.Fatalf("ground truth rows %d", len(gt))
	}
	for qi, row := range gt {
		want := ExactKNN(d.Train, d.Queries[qi], 5)
		for i := range want {
			if row[i] != want[i] {
				t.Fatalf("query %d rank %d: %d vs %d", qi, i, row[i], want[i])
			}
		}
	}
	// Cached call with smaller k must slice, not recompute.
	gt3 := d.GroundTruth(3)
	if len(gt3[0]) != 3 {
		t.Fatalf("cached slice length %d", len(gt3[0]))
	}
}

func TestRecall(t *testing.T) {
	if r := Recall([]int{1, 2, 3}, []int{1, 2, 4}); math.Abs(r-2.0/3) > 1e-12 {
		t.Fatalf("Recall = %v", r)
	}
	if Recall(nil, nil) != 1 {
		t.Fatal("Recall of empty want should be 1")
	}
	if MeanRecall([][]int{{1}, {2}}, [][]int{{1}, {3}}) != 0.5 {
		t.Fatal("MeanRecall wrong")
	}
	if MeanRecall(nil, [][]int{{1}}) != 0 {
		t.Fatal("MeanRecall of mismatched lengths should be 0")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := GloVeLike(100, 5, 11)
	b := GloVeLike(100, 5, 11)
	for i := range a.Train {
		if !kerneltest.ApproxEqual(a.Train[i], b.Train[i], 0) {
			t.Fatal("same seed produced different data")
		}
	}
	c := GloVeLike(100, 5, 12)
	if kerneltest.ApproxEqual(a.Train[0], c.Train[0], 1e-9) {
		t.Fatal("different seeds produced identical data")
	}
}
