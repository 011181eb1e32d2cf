package aspe

import (
	"math"
	"testing"

	"ppanns/internal/kerneltest"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

func TestKeyGenValidation(t *testing.T) {
	if _, err := KeyGen(rng.NewSeeded(1), 0); err == nil {
		t.Fatal("expected error for dim 0")
	}
}

func TestInnerProductRecoversLinearLeak(t *testing.T) {
	// The basic scheme: C_pᵀ·T_q computed purely over ciphertexts must
	// equal r₁·D(p,q) + r₂.
	r := rng.NewSeeded(2)
	dim := 16
	s, err := KeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		p := rng.Gaussian(r, nil, dim)
		q := rng.Gaussian(r, nil, dim)
		qr := s.NewQueryRand()
		got := vec.Dot(s.EncryptDB(p), s.EncryptQuery(q, qr))
		want := qr.R1*dValue(p, q) + qr.R2
		if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("inner product %g, want %g", got, want)
		}
	}
}

func TestLinearLeakOrdersLikeDistance(t *testing.T) {
	// For a fixed query, the leaked value must rank candidates exactly by
	// distance (that is why ASPE "works" before it is broken).
	r := rng.NewSeeded(3)
	dim := 8
	s, err := KeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	q := rng.Gaussian(r, nil, dim)
	qr := s.NewQueryRand()
	tq := s.EncryptQuery(q, qr)
	for trial := 0; trial < 50; trial++ {
		o := rng.Gaussian(r, nil, dim)
		p := rng.Gaussian(r, nil, dim)
		lo := vec.Dot(s.EncryptDB(o), tq)
		lp := vec.Dot(s.EncryptDB(p), tq)
		if (lo < lp) != (vec.SqDist(o, q) < vec.SqDist(p, q)) {
			t.Fatal("leak ordering disagrees with distance ordering")
		}
	}
}

func TestSquareCoeffIdentity(t *testing.T) {
	// φ(p)ᵀ·c(q) must reproduce the square leak exactly.
	r := rng.NewSeeded(4)
	dim := 6
	for trial := 0; trial < 30; trial++ {
		p := rng.Gaussian(r, nil, dim)
		q := rng.Gaussian(r, nil, dim)
		qr := QueryRand{R1: 1.3, R2: -0.7, R3: 2.1}
		want := LeakedValue(Square, p, q, qr, LeakOptions{})
		got := vec.Dot(squareFeatures(p), squareCoeff(q, qr))
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("feature identity broken: %g vs %g", got, want)
		}
	}
}

// leakSet computes the leaks of all known plaintexts for one query.
func leakSet(v Variant, known [][]float64, q []float64, qr QueryRand, opt LeakOptions) []float64 {
	out := make([]float64, len(known))
	for i, p := range known {
		out[i] = LeakedValue(v, p, q, qr, opt)
	}
	return out
}

func randomPlaintexts(r *rng.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = rng.Gaussian(r, nil, dim)
	}
	return out
}

func TestTheorem1LinearAttack(t *testing.T) {
	r := rng.NewSeeded(5)
	dim := 16
	known := randomPlaintexts(r, dim+2, dim)
	q := rng.Gaussian(r, nil, dim)
	qr := QueryRand{R1: 1.7, R2: -0.4}
	rec, err := RecoverQueryLinear(known, leakSet(Linear, known, q, qr, LeakOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(rec.Query, q, 1e-6) {
		t.Fatalf("query not recovered: %v vs %v", rec.Query[:3], q[:3])
	}
}

func TestCorollary1ExponentialAttack(t *testing.T) {
	r := rng.NewSeeded(6)
	dim := 12
	known := randomPlaintexts(r, dim+2, dim)
	q := rng.Gaussian(r, nil, dim)
	qr := QueryRand{R1: 0.9, R2: 1.1}
	rec, err := RecoverQueryExponential(known, leakSet(Exponential, known, q, qr, LeakOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(rec.Query, q, 1e-6) {
		t.Fatal("query not recovered from exponential leaks")
	}
}

func TestCorollary2LogarithmicAttack(t *testing.T) {
	r := rng.NewSeeded(7)
	dim := 12
	known := randomPlaintexts(r, dim+2, dim)
	q := rng.Gaussian(r, nil, dim)
	qr := QueryRand{R1: 1.2, R2: 0.8}
	opt := LeakOptions{Shift: 200} // public protocol constant keeping log args positive
	rec, err := RecoverQueryLogarithmic(known, leakSet(Logarithmic, known, q, qr, opt), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(rec.Query, q, 1e-6) {
		t.Fatal("query not recovered from logarithmic leaks")
	}
}

func TestTheorem2SquareAttack(t *testing.T) {
	r := rng.NewSeeded(8)
	dim := 8
	m := SquareFeatureDim(dim)
	known := randomPlaintexts(r, m, dim)
	q := rng.Gaussian(r, nil, dim)
	qr := QueryRand{R1: 1.4, R2: -0.6, R3: 0.9}
	rec, err := RecoverQuerySquare(known, leakSet(Square, known, q, qr, LeakOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(rec.Query, q, 1e-5) {
		t.Fatal("query not recovered from square leaks")
	}
}

func TestTheorem1DatabaseRecovery(t *testing.T) {
	// Full pipeline: recover d+2 queries, then recover an unseen database
	// vector from its leaks alone.
	r := rng.NewSeeded(9)
	dim := 10
	known := randomPlaintexts(r, dim+2, dim)
	var recs []*QueryRecovery
	for j := 0; j < dim+2; j++ {
		q := rng.Gaussian(r, nil, dim)
		qr := QueryRand{R1: rng.Uniform(r, 0.5, 2), R2: rng.UniformNonZero(r, 0.5, 2)}
		rec, err := RecoverQueryLinear(known, leakSet(Linear, known, q, qr, LeakOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	secret := rng.Gaussian(r, nil, dim) // NOT in P_leak
	leaks := make([]float64, len(recs))
	for j, rec := range recs {
		// The attacker reads these off the ciphertexts; here we compute
		// them via the leakage function with the true coefficients.
		leaks[j] = vec.Dot(ExtendDB(secret), rec.Coeff)
	}
	got, err := RecoverDatabaseVector(recs, leaks)
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(got, secret, 1e-6) {
		t.Fatal("database vector not recovered")
	}
}

func TestTheorem2DatabaseRecovery(t *testing.T) {
	r := rng.NewSeeded(10)
	dim := 5
	m := SquareFeatureDim(dim)
	known := randomPlaintexts(r, m, dim)
	var recs []*SquareQueryRecovery
	for j := 0; j < m; j++ {
		q := rng.Gaussian(r, nil, dim)
		qr := QueryRand{
			R1: rng.Uniform(r, 0.5, 2),
			R2: rng.UniformNonZero(r, 0.5, 2),
			R3: rng.UniformNonZero(r, 0.5, 2),
		}
		rec, err := RecoverQuerySquare(known, leakSet(Square, known, q, qr, LeakOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	secret := rng.Gaussian(r, nil, dim)
	leaks := make([]float64, len(recs))
	for j, rec := range recs {
		leaks[j] = vec.Dot(squareFeatures(secret), rec.Coeff)
	}
	got, err := recoverDatabaseVectorSquare(recs, leaks)
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(got, secret, 1e-4) {
		t.Fatalf("database vector not recovered: %v vs %v", got, secret)
	}
}

func TestEndToEndCiphertextAttack(t *testing.T) {
	// Theorem 1 with leaks computed *from real ciphertexts*, exactly as the
	// honest-but-curious server would.
	r := rng.NewSeeded(11)
	dim := 12
	s, err := KeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	known := randomPlaintexts(r, dim+2, dim)
	cts := make([][]float64, len(known))
	for i, p := range known {
		cts[i] = s.EncryptDB(p)
	}
	q := rng.Gaussian(r, nil, dim)
	tq := s.EncryptQuery(q, s.NewQueryRand())
	leaks := make([]float64, len(cts))
	for i, c := range cts {
		leaks[i] = vec.Dot(c, tq)
	}
	rec, err := RecoverQueryLinear(known, leaks)
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(rec.Query, q, 1e-6) {
		t.Fatal("ciphertext-only attack failed to recover the query")
	}
}

func TestAttackInputValidation(t *testing.T) {
	if _, err := RecoverQueryLinear(nil, nil); err == nil {
		t.Fatal("expected error for empty inputs")
	}
	known := randomPlaintexts(rng.NewSeeded(12), 3, 8) // too few
	if _, err := RecoverQueryLinear(known, make([]float64, 3)); err == nil {
		t.Fatal("expected error for too few known plaintexts")
	}
	if _, err := RecoverQueryExponential(known, []float64{-1, 1, 1}); err == nil {
		t.Fatal("expected error for non-positive exponential leak")
	}
	if _, err := RecoverQuerySquare(known, make([]float64, 3)); err == nil {
		t.Fatal("expected error for too few square plaintexts")
	}
	if _, err := RecoverDatabaseVector(nil, nil); err == nil {
		t.Fatal("expected error for no recovered queries")
	}
	if _, err := recoverDatabaseVectorSquare(nil, nil); err == nil {
		t.Fatal("expected error for no recovered square queries")
	}
}

func TestVariantString(t *testing.T) {
	for v, want := range map[Variant]string{
		Linear: "linear", Exponential: "exponential",
		Logarithmic: "logarithmic", Square: "square", Variant(9): "variant(9)",
	} {
		if v.String() != want {
			t.Fatalf("String() = %q, want %q", v.String(), want)
		}
	}
}
