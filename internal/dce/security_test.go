package dce

import (
	"math"
	"slices"
	"sort"
	"testing"

	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// These tests are empirical companions to the Section VI security analysis:
// they check that the observable distributions a curious server sees do not
// separate chosen plaintexts by first-order statistics. They are sanity
// probes, not proofs — the IND-KPA argument is the paper's Theorem 4.

// componentMoments summarizes one ciphertext component.
func componentMoments(v []float64) (mean, sd float64) {
	var sum, sumSq float64
	for _, x := range v {
		sum += x
		sumSq += x * x
	}
	n := float64(len(v))
	mean = sum / n
	sd = math.Sqrt(math.Max(0, sumSq/n-mean*mean))
	return
}

// TestChosenPlaintextMomentsOverlap encrypts two adversarially different
// plaintexts many times and checks their per-encryption component means
// interleave (no threshold on the mean separates them).
func TestChosenPlaintextMomentsOverlap(t *testing.T) {
	r := rng.NewSeeded(201)
	dim := 16
	k, err := KeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	pa := slices.Repeat([]float64{1}, dim)                     // all +1
	pb := vec.Scale(nil, -1, slices.Repeat([]float64{1}, dim)) // all −1
	const trials = 64
	meansA := make([]float64, trials)
	meansB := make([]float64, trials)
	for i := 0; i < trials; i++ {
		ma, _ := componentMoments(k.Encrypt(pa)[:k.CiphertextDim()])
		mb, _ := componentMoments(k.Encrypt(pb)[:k.CiphertextDim()])
		meansA[i], meansB[i] = ma, mb
	}
	// A perfect classifier would fully order one set above the other.
	// Require substantial interleaving: the best threshold should
	// misclassify a healthy fraction.
	all := append(append([]float64(nil), meansA...), meansB...)
	sort.Float64s(all)
	bestAcc := 0.0
	for _, thr := range all {
		correct := 0
		for _, m := range meansA {
			if m <= thr {
				correct++
			}
		}
		for _, m := range meansB {
			if m > thr {
				correct++
			}
		}
		acc := float64(correct) / float64(2*trials)
		if acc < 0.5 {
			acc = 1 - acc
		}
		if acc > bestAcc {
			bestAcc = acc
		}
	}
	if bestAcc > 0.8 {
		t.Fatalf("a mean-threshold classifier separates chosen plaintexts with accuracy %.2f", bestAcc)
	}
}

// TestTrapdoorMagnitudeHidesQueryNorm checks that trapdoor norms do not
// monotonically track query norms (r_q and the β randomness should mask
// them).
func TestTrapdoorMagnitudeHidesQueryNorm(t *testing.T) {
	r := rng.NewSeeded(202)
	dim := 16
	k, err := KeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Queries with strictly increasing norms.
	var norms, tnorms []float64
	for i := 1; i <= 24; i++ {
		q := vec.Scale(nil, float64(i)*0.25, slices.Repeat([]float64{1}, dim))
		norms = append(norms, vec.Norm(q))
		tnorms = append(tnorms, vec.Norm(k.TrapGen(q).Q))
	}
	// Spearman-style check: count discordant pairs; a perfect leak would
	// have none.
	discordant, total := 0, 0
	for i := 0; i < len(norms); i++ {
		for j := i + 1; j < len(norms); j++ {
			total++
			if (norms[i] < norms[j]) != (tnorms[i] < tnorms[j]) {
				discordant++
			}
		}
	}
	if discordant < total/10 {
		t.Fatalf("trapdoor norms track query norms too faithfully: %d/%d discordant", discordant, total)
	}
}

// TestZValuesCarryPerPairRandomness: the observable Z_{o,p,q} must not be a
// deterministic function of the distance gap — re-encrypting the same pair
// must yield different Z magnitudes (only the sign is stable).
func TestZValuesCarryPerPairRandomness(t *testing.T) {
	r := rng.NewSeeded(203)
	dim := 12
	k, err := KeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := rng.Gaussian(r, nil, dim)
	p := rng.Gaussian(r, nil, dim)
	q := rng.Gaussian(r, nil, dim)
	tq := k.TrapGen(q)
	zs := make([]float64, 16)
	for i := range zs {
		zs[i] = DistanceComp(k.Encrypt(o), k.Encrypt(p), tq)
	}
	sign := zs[0] > 0
	spread := 0.0
	for _, z := range zs {
		if (z > 0) != sign {
			t.Fatal("sign unstable across re-encryptions")
		}
		ratio := z / zs[0]
		if d := math.Abs(ratio - 1); d > spread {
			spread = d
		}
	}
	if spread < 0.05 {
		t.Fatalf("Z magnitudes nearly deterministic (max ratio deviation %.4f); r_o/r_p randomness missing", spread)
	}
}

// TestCiphertextComponentsUncorrelatedWithPlaintext: correlation between a
// plaintext coordinate and any fixed ciphertext coordinate across many
// random plaintexts should be statistically indistinguishable from noise.
func TestCiphertextComponentsUncorrelatedWithPlaintext(t *testing.T) {
	r := rng.NewSeeded(204)
	dim := 8
	k, err := KeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 400
	xs := make([]float64, samples) // plaintext coordinate 0
	ys := make([]float64, samples) // ciphertext P1 coordinate 0
	for i := 0; i < samples; i++ {
		p := rng.Gaussian(r, nil, dim)
		xs[i] = p[0]
		ys[i] = k.Encrypt(p)[0]
	}
	corr := pearson(xs, ys)
	// Null-hypothesis bound ≈ 3/√samples ≈ 0.15; allow slack since P1 is
	// a linear function of all coordinates divided by key values — any
	// single-coordinate correlation should still drown in randomness.
	if math.Abs(corr) > 0.35 {
		t.Fatalf("plaintext↔ciphertext coordinate correlation %.3f too strong", corr)
	}
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
