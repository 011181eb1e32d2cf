package eval

import (
	"fmt"
	"sort"
	"testing"

	"ppanns/internal/dataset"
	"ppanns/internal/dcpe"
	"ppanns/internal/pq"
	"ppanns/internal/rng"
)

// TestTune runs the recall-targeted (M, k′) tuner of the PQ tier on the
// deep corpus and prints the operating point it chooses: Recall@k ≥ 0.95
// at β = 0.3.
func TestTune(t *testing.T) {
	s := start(t)
	const target, beta = 0.95, 0.3
	var tb table
	for _, d := range s.datasets(t, "deep") {
		pt, err := calibratePQ(d, s.k, target, beta, s.seed)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		tb.printf("%-12s M=%-3d k′=%-4d recall %.3f (target %.2f, %.1f bytes/point codes)\n",
			d.Name, pt.M, pt.KPrime, pt.Recall, target, float64(pt.M))
	}
	s.check(t, "tune", &tb)
}

// tunedPQ is one operating point of the compressed filter tier: M bytes per
// code, an over-fetch k′, and the two-phase recall the proxy measured there.
type tunedPQ struct {
	M      int
	KPrime int
	Recall float64
}

// calibratePQ picks the cheapest (M, k′) at which PQ-filtered search with
// exact refine reaches the target Recall@k — the compressed tier's
// counterpart of core.CalibrateBeta. Like the β calibration it runs a bounded
// brute-force proxy instead of a full index build: vectors are SAP-encrypted
// at the given β, a codebook is trained per candidate M, each query's top-k′
// by asymmetric PQ distance is refined to top-k by exact distance, and the
// result is scored against plaintext ground truth. The proxy ranks every
// point (no graph losses), so it upper-bounds the deployed filter recall the
// same way the β proxy does; quantization and refine behavior match the
// real pipeline exactly.
//
// Candidates are swept cheapest-first — M ascending (bytes per point), then
// k′ ascending (refine work) — and the first point meeting the target wins.
// When nothing reaches the target, the best point found is returned along
// with an error describing the shortfall.
func calibratePQ(data *dataset.Data, k int, target, beta float64, seed uint64) (tunedPQ, error) {
	if target <= 0 || target >= 1 {
		return tunedPQ{}, fmt.Errorf("recall target %g outside (0,1)", target)
	}
	key, err := dcpe.KeyGen(rng.NewSeeded(seed^0x9cb), data.Dim, 1024, beta)
	if err != nil {
		return tunedPQ{}, err
	}
	// Bound the proxy's work on large corpora: PQ recall at a given (M, k′)
	// is a property of the quantizer and the data distribution, not of n.
	n := len(data.Train)
	if n > 10000 {
		n = 10000
	}
	nq := len(data.Queries)
	if nq > 25 {
		nq = 25
	}
	enc := make([][]float64, n)
	for i := 0; i < n; i++ {
		enc[i] = key.Encrypt(data.Train[i])
	}
	gt := make([][]int, nq)
	for qi := 0; qi < nq; qi++ {
		gt[qi] = dataset.ExactKNN(data.Train[:n], data.Queries[qi], k)
	}

	ms := []int{8, 16, 32, 48}
	kPrimes := []int{4 * k, 8 * k, 16 * k, 32 * k}
	best := tunedPQ{Recall: -1}
	for _, m := range ms {
		if m > data.Dim {
			continue
		}
		store, err := pq.Build(enc, pq.TrainConfig{M: m, Seed: seed ^ 0x4bd})
		if err != nil {
			return tunedPQ{}, err
		}
		// Rank all n once per (M, query); every k′ is then a prefix.
		lut := make([]float64, m*pq.LUTStride)
		dists := make([]float64, n)
		order := make([]int, n)
		recalls := make([]float64, len(kPrimes))
		for qi := 0; qi < nq; qi++ {
			encQ := key.Encrypt(data.Queries[qi])
			store.Book.FillLUT(lut, encQ)
			for id := 0; id < n; id++ {
				row := store.Codes.Row(id)
				var s float64
				for j := 0; j < m; j++ {
					s += lut[j*pq.LUTStride+int(row[j])]
				}
				dists[id] = s
			}
			for id := range order {
				order[id] = id
			}
			sort.Slice(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
			for pi, kp := range kPrimes {
				cut := kp
				if cut > n {
					cut = n
				}
				cands := make([][]float64, cut)
				idmap := make([]int, cut)
				for i := 0; i < cut; i++ {
					cands[i] = data.Train[order[i]]
					idmap[i] = order[i]
				}
				refined := dataset.ExactKNN(cands, data.Queries[qi], k)
				got := make([]int, len(refined))
				for i, pos := range refined {
					got[i] = idmap[pos]
				}
				recalls[pi] += dataset.Recall(got, gt[qi])
			}
		}
		for pi, kp := range kPrimes {
			r := recalls[pi] / float64(nq)
			pt := tunedPQ{M: m, KPrime: kp, Recall: r}
			if r >= target {
				return pt, nil
			}
			if r > best.Recall {
				best = pt
			}
		}
	}
	return best, fmt.Errorf("no (M, k′) reached recall %.3f; best %.3f at M=%d k′=%d",
		target, best.Recall, best.M, best.KPrime)
}
