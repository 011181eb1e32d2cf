// Package dataset provides the evaluation corpora: synthetic generators
// matching the dimensionality and value profile of the paper's four
// datasets (Table I: Sift1M d=128, Gist d=960, Glove d=100, Deep1M d=96),
// brute-force ground truth, and recall computation.
//
// The real corpora are public downloads the offline build cannot fetch;
// the generators below are the documented substitution (README,
// "Reproducing the paper's evaluation").
// Each produces a clustered distribution — the property proximity graphs
// and LSH depend on — with the source dataset's characteristic value range
// and intrinsic structure:
//
//   - SIFT-like: non-negative integer-ish coordinates in [0,255], Gaussian
//     mixture (SIFT descriptors are clustered histogram counts);
//   - GIST-like: low intrinsic dimension embedded in d=960 via a fixed
//     random linear map, small positive values (global image descriptors
//     are strongly correlated across dimensions);
//   - GloVe-like: zero-mean, per-point scale mixing for heavier tails
//     (word embeddings are norm-heterogeneous);
//   - Deep-like: ℓ2-normalized CNN-embedding-style mixture (Deep1M/Deep1B
//     features are unit-normalized).
package dataset

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// Data is one evaluation corpus: database vectors, query vectors, and
// (lazily computed) exact neighbors.
type Data struct {
	Name    string
	Dim     int
	Train   [][]float64
	Queries [][]float64

	gtMu sync.Mutex
	gtK  int
	gt   [][]int
}

// Spec parameterizes a synthetic corpus.
type Spec struct {
	Name     string
	Dim      int
	N        int // database size
	Queries  int
	Clusters int // mixture components; default max(16, N/500)
	Seed     uint64
}

func (s Spec) clusters() int {
	if s.Clusters > 0 {
		return s.Clusters
	}
	c := s.N / 500
	if c < 16 {
		c = 16
	}
	return c
}

// SIFTLike generates a corpus with SIFT's dimensionality and value range.
func SIFTLike(n, queries int, seed uint64) *Data {
	spec := Spec{Name: "sift-like", Dim: 128, N: n, Queries: queries, Seed: seed}
	r := rng.NewSeeded(seed ^ 0x51f7)
	k := spec.clusters()
	centers := make([][]float64, k)
	for i := range centers {
		c := make([]float64, spec.Dim)
		for j := range c {
			c[j] = rng.Uniform(r, 10, 200)
		}
		centers[i] = c
	}
	sample := func() []float64 {
		c := centers[r.IntN(k)]
		v := make([]float64, spec.Dim)
		for j := range v {
			x := c[j] + float64(r.NormFloat64()*25)
			// SIFT coordinates are small non-negative counts capped at 255.
			v[j] = math.Round(clamp(x, 0, 255))
		}
		return v
	}
	return build(spec, sample)
}

// GISTLike generates a d=960 corpus with low intrinsic dimension.
func GISTLike(n, queries int, seed uint64) *Data {
	spec := Spec{Name: "gist-like", Dim: 960, N: n, Queries: queries, Seed: seed}
	r := rng.NewSeeded(seed ^ 0x6157)
	const latent = 24
	// Fixed random embedding of a latent space into R^960.
	embed := make([][]float64, spec.Dim)
	for i := range embed {
		embed[i] = rng.GaussianVec(r, latent, 1/math.Sqrt(latent))
	}
	k := spec.clusters()
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = rng.GaussianVec(r, latent, 1)
	}
	sample := func() []float64 {
		z := vec.Add(nil, centers[r.IntN(k)], rng.GaussianVec(r, latent, 0.25))
		v := make([]float64, spec.Dim)
		for i := range v {
			// GIST values are small and non-negative.
			v[i] = clamp(0.1+float64(0.08*vec.Dot(embed[i], z))+float64(0.01*r.NormFloat64()), 0, 1.5)
		}
		return v
	}
	return build(spec, sample)
}

// GloVeLike generates a d=100 zero-mean corpus with heterogeneous norms.
func GloVeLike(n, queries int, seed uint64) *Data {
	spec := Spec{Name: "glove-like", Dim: 100, N: n, Queries: queries, Seed: seed}
	r := rng.NewSeeded(seed ^ 0x610e)
	k := spec.clusters()
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = rng.GaussianVec(r, spec.Dim, 2)
	}
	sample := func() []float64 {
		c := centers[r.IntN(k)]
		// Per-point scale mixing produces the heavy-tailed norm profile of
		// word embeddings.
		scale := 0.4 + float64(r.ExpFloat64()*0.4)
		return vec.AXPY(nil, scale, rng.GaussianVec(r, spec.Dim, 1), c)
	}
	return build(spec, sample)
}

// DeepLike generates a d=96 ℓ2-normalized corpus.
func DeepLike(n, queries int, seed uint64) *Data {
	spec := Spec{Name: "deep-like", Dim: 96, N: n, Queries: queries, Seed: seed}
	r := rng.NewSeeded(seed ^ 0xdeeb)
	k := spec.clusters()
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = vec.Normalize(rng.GaussianVec(r, spec.Dim, 1))
	}
	noise := 0.35 / math.Sqrt(float64(spec.Dim)) // ‖perturbation‖ ≈ 0.35 ≪ inter-center ≈ √2
	sample := func() []float64 {
		v := vec.AXPY(nil, 1, rng.GaussianVec(r, spec.Dim, noise), centers[r.IntN(k)])
		return vec.Normalize(v)
	}
	return build(spec, sample)
}

// ByName builds one of the four Table-I stand-ins ("sift", "gist",
// "glove", "deep") at the given scale: n ≥ 1 vectors and queries ≥ 0.
func ByName(name string, n, queries int, seed uint64) (*Data, error) {
	if n < 1 || queries < 0 {
		return nil, fmt.Errorf("dataset: %d vectors and %d queries: want at least one vector and no negative count", n, queries)
	}
	switch name {
	case "sift", "sift-like":
		return SIFTLike(n, queries, seed), nil
	case "gist", "gist-like":
		return GISTLike(n, queries, seed), nil
	case "glove", "glove-like":
		return GloVeLike(n, queries, seed), nil
	case "deep", "deep-like":
		return DeepLike(n, queries, seed), nil
	default:
		return nil, fmt.Errorf("dataset: unknown dataset %q", name)
	}
}

func build(spec Spec, sample func() []float64) *Data {
	d := &Data{Name: spec.Name, Dim: spec.Dim}
	d.Train = make([][]float64, spec.N)
	for i := range d.Train {
		d.Train[i] = sample()
	}
	d.Queries = make([][]float64, spec.Queries)
	for i := range d.Queries {
		d.Queries[i] = sample()
	}
	return d
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// GroundTruth returns the exact k nearest database ids for every query,
// computed by parallel brute force and cached (recomputed if k grows).
func (d *Data) GroundTruth(k int) [][]int {
	d.gtMu.Lock()
	defer d.gtMu.Unlock()
	if d.gt != nil && d.gtK >= k {
		out := make([][]int, len(d.gt))
		for i, row := range d.gt {
			out[i] = row[:k]
		}
		return out
	}
	gt := make([][]int, len(d.Queries))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi := w; qi < len(d.Queries); qi += workers {
				gt[qi] = ExactKNN(d.Train, d.Queries[qi], k)
			}
		}(w)
	}
	wg.Wait()
	d.gt, d.gtK = gt, k
	return gt
}

// ExactKNN returns the exact k nearest ids of q in data, closest first.
func ExactKNN(data [][]float64, q []float64, k int) []int {
	var best resultheap.Pool
	for i, v := range data {
		best.Offer(int32(i), vec.SqDist(v, q), k)
	}
	ids := make([]int, len(best.Cands()))
	for i, c := range best.Cands() {
		ids[i] = int(c.ID)
	}
	return ids
}

// Recall computes |got ∩ want| / |want| — the paper's Recall@k.
func Recall(got, want []int) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[int]struct{}, len(want))
	for _, id := range want {
		set[id] = struct{}{}
	}
	hit := 0
	for _, id := range got {
		if _, ok := set[id]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// MeanRecall averages Recall over a query batch.
func MeanRecall(got, want [][]int) float64 {
	if len(got) != len(want) || len(got) == 0 {
		return 0
	}
	var sum float64
	for i := range got {
		sum += Recall(got[i], want[i])
	}
	return sum / float64(len(got))
}

// Stats describes a corpus for Table I.
type Stats struct {
	Name     string
	Dim      int
	N        int
	Queries  int
	MaxAbs   float64
	MeanNorm float64
	BetaLo   float64 // √M
	BetaHi   float64 // 2M√d
}

// Describe computes Table-I style statistics plus the β range DCPE allows.
func (d *Data) Describe() Stats {
	maxAbs := vec.MaxAbs(d.Train)
	var norm float64
	for _, v := range d.Train {
		norm += vec.Norm(v)
	}
	if len(d.Train) > 0 {
		norm /= float64(len(d.Train))
	}
	return Stats{
		Name: d.Name, Dim: d.Dim, N: len(d.Train), Queries: len(d.Queries),
		MaxAbs: maxAbs, MeanNorm: norm,
		BetaLo: math.Sqrt(maxAbs), BetaHi: 2 * maxAbs * math.Sqrt(float64(d.Dim)),
	}
}
