package bench

import (
	"fmt"
	"math"
	"sort"

	"ppanns/internal/dataset"
	"ppanns/internal/dcpe"
	"ppanns/internal/pq"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// CalibrateBeta finds the β at which exact k-NN in SAP-ciphertext space
// reaches the target Recall@k against plaintext ground truth — the paper's
// procedure of choosing β "so that the upper bound of recall in the filter
// phase is around 0.5" (Section VII-A), evaluated with a brute-force proxy
// instead of a full HNSW build so the calibration runs in milliseconds.
//
// The proxy is an upper bound on the filter-phase recall: the graph search
// can only lose additional recall on top of the DCPE noise, so a β
// calibrated at 0.5 by the proxy lands the full filter phase at or just
// below 0.5, matching the paper's operating point.
func CalibrateBeta(data *dataset.Data, k int, target float64, seed uint64) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("bench: recall target %g outside (0,1)", target)
	}
	maxAbs := vec.MaxAbs(data.Train)
	lo, hi := 0.0, 2*maxAbs*math.Sqrt(float64(data.Dim))
	// Recall is monotone decreasing in β; bisect.
	for iter := 0; iter < 12 && hi-lo > 1e-3*hi; iter++ {
		mid := (lo + hi) / 2
		r, err := sapRecallProxy(data, k, mid, seed)
		if err != nil {
			return 0, err
		}
		if r > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// sapRecallProxy measures Recall@k of exact k-NN in SAP space.
func sapRecallProxy(data *dataset.Data, k int, beta float64, seed uint64) (float64, error) {
	key, err := dcpe.KeyGen(rng.NewSeeded(seed^0xca1b), data.Dim, 1024, beta)
	if err != nil {
		return 0, err
	}
	// Bound the proxy's work on large corpora.
	n := len(data.Train)
	if n > 4000 {
		n = 4000
	}
	nq := len(data.Queries)
	if nq > 25 {
		nq = 25
	}
	encTrain := make([][]float64, n)
	for i := 0; i < n; i++ {
		encTrain[i] = key.Encrypt(data.Train[i])
	}
	var recall float64
	for qi := 0; qi < nq; qi++ {
		q := data.Queries[qi]
		want := dataset.ExactKNN(data.Train[:n], q, k)
		got := dataset.ExactKNN(encTrain, key.Encrypt(q), k)
		recall += dataset.Recall(got, want)
	}
	return recall / float64(nq), nil
}

// TunedPQ is one operating point of the compressed filter tier: M bytes per
// code, an over-fetch k′, and the two-phase recall the proxy measured there.
type TunedPQ struct {
	M      int
	KPrime int
	Recall float64
}

// CalibratePQ picks the cheapest (M, k′) at which PQ-filtered search with
// exact refine reaches the target Recall@k — the compressed tier's
// counterpart of CalibrateBeta. Like the β calibration it runs a bounded
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
func CalibratePQ(data *dataset.Data, k int, target, beta float64, seed uint64) (TunedPQ, error) {
	if target <= 0 || target >= 1 {
		return TunedPQ{}, fmt.Errorf("bench: recall target %g outside (0,1)", target)
	}
	key, err := dcpe.KeyGen(rng.NewSeeded(seed^0x9cb), data.Dim, 1024, beta)
	if err != nil {
		return TunedPQ{}, err
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
	best := TunedPQ{Recall: -1}
	for _, m := range ms {
		if m > data.Dim {
			continue
		}
		store, err := pq.Build(enc, pq.TrainConfig{M: m, Seed: seed ^ 0x4bd})
		if err != nil {
			return TunedPQ{}, err
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
			pt := TunedPQ{M: m, KPrime: kp, Recall: r}
			if r >= target {
				return pt, nil
			}
			if r > best.Recall {
				best = pt
			}
		}
	}
	return best, fmt.Errorf("bench: no (M, k′) reached recall %.3f; best %.3f at M=%d k′=%d",
		target, best.Recall, best.M, best.KPrime)
}

// tuneRecall is the Recall@k the "tune" experiment asks of the compressed
// tier, and tuneBeta the DCPE noise it tunes at.
const (
	tuneRecall = 0.95
	tuneBeta   = 0.3
)

// Tune ("tune") runs the recall-targeted (M, k′) tuner and prints the
// chosen operating point per configured dataset.
func Tune(cfg Config) error {
	cfg = cfg.withDefaults()
	datas, err := cfg.datasets("deep")
	if err != nil {
		return err
	}
	for _, data := range datas {
		pt, err := CalibratePQ(data, cfg.K, tuneRecall, tuneBeta, cfg.Seed)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", data.Name, err)
		}
		cfg.printf("%-12s M=%-3d k′=%-4d recall %.3f (target %.2f, %.1f bytes/point codes)\n",
			data.Name, pt.M, pt.KPrime, pt.Recall, tuneRecall, float64(pt.M))
	}
	return nil
}
