package eval

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"ppanns/internal/kerneltest"
	"ppanns/internal/matrix"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// What asymmetric scalar-product-preserving encryption (Wong et al.) and
// the "enhanced" variants the paper revisits in Section III-A leak to the
// server, together with the known-plaintext attacks of Theorem 1,
// Corollaries 1–2 and Theorem 2 that recover queries and database vectors
// from the leaked distance transformations. TestAttack prints their
// errors; the tests below check each step, and encrypt with the scheme
// itself to show that the leak aspeLeak computes is what a server reads
// off real ciphertexts.
//
// The scheme exists here as a *negative* baseline: the attacks demonstrate
// why distance-value leakage (even transformed) is fatal, which motivates
// DCE's comparison-only leakage.
//
// Encoding. A database vector p is extended to p′ = [−2pᵀ, ‖p‖², 1] and
// encrypted as C_p = Mᵀp′ for a secret invertible M ∈ R^(d+2)×(d+2). A query
// q with per-query randomness (r₁ > 0, r₂) is encrypted as
// T_q = M⁻¹·[r₁qᵀ, r₁, r₂]ᵀ, so the server computes
//
//	C_pᵀ·T_q = r₁(‖p‖² − 2pᵀq) + r₂ = r₁·D(p,q) + r₂,
//
// a query-specific increasing affine transform of the squared distance
// shifted by the (constant for a fixed q) ‖q‖² term — exactly the "linear
// transformation of distances" leakage of Theorem 1. The exponential,
// logarithmic and square variants expose exp/log/square transforms of that
// core, modelling the hardened variants the paper analyzes.

// aspeVariant selects the distance transformation an enhanced ASPE scheme
// leaks to the server.
type aspeVariant int

const (
	// aspeLinear leaks r₁·D + r₂ (Theorem 1).
	aspeLinear aspeVariant = iota
	// aspeExponential leaks exp(r₁·D + r₂) (Corollary 1).
	aspeExponential
	// aspeLogarithmic leaks ln(r₁·D + r₂) after a positivity shift
	// (Corollary 2).
	aspeLogarithmic
	// aspeSquare leaks r₁·(D + r₂)² + r₃ (Theorem 2).
	aspeSquare
)

// String names the variant for reports.
func (v aspeVariant) String() string {
	switch v {
	case aspeLinear:
		return "linear"
	case aspeExponential:
		return "exponential"
	case aspeLogarithmic:
		return "logarithmic"
	case aspeSquare:
		return "square"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// aspeQueryRand is the per-query randomness. It is generated at trapdoor time
// and — in a deployment — known only to the user.
type aspeQueryRand struct {
	R1, R2, R3 float64
}

// aspeExtendDB returns p′ = [−2pᵀ, ‖p‖², 1], the database-side extension.
func aspeExtendDB(p []float64) []float64 {
	out := make([]float64, len(p)+2)
	for i, v := range p {
		out[i] = -2 * v
	}
	out[len(p)] = vec.SqNorm(p)
	out[len(p)+1] = 1
	return out
}

// aspeDValue returns the core quantity D(p,q) = ‖p‖² − 2pᵀq = dist(p,q) − ‖q‖².
// For a fixed query it is a constant shift of the squared distance, so any
// increasing transform of D orders candidates identically to dist.
func aspeDValue(p, q []float64) float64 { return vec.SqNorm(p) - 2*vec.Dot(p, q) }

// aspeLeakOptions keeps the logarithmic variant's argument positive: the leaked
// value is ln(r₁·D + r₂ + logShift·r₁·‖q-scale‖); we use a data-dependent
// shift chosen by the caller via aspeLeakOptions.
type aspeLeakOptions struct {
	// Shift is added inside the log for the aspeLogarithmic variant so its
	// argument stays positive. It plays the role of a public protocol
	// constant; the attack treats it as known.
	Shift float64
}

// aspeLeak computes the transformed distance value L(C_p, T_q) that
// variant v exposes to the server for plaintext pair (p, q) under query
// randomness qr. For aspeLinear this equals the inner product of encryptDB(p) and
// encryptQuery(q, qr), computed purely from ciphertexts; the other variants
// apply their transform to that same core, modelling the enhanced schemes'
// observable output.
func aspeLeak(v aspeVariant, p, q []float64, qr aspeQueryRand, opt aspeLeakOptions) float64 {
	// The float64 conversions forbid fusing a product into a sum, so every
	// architecture rounds alike.
	core := float64(qr.R1*aspeDValue(p, q)) + qr.R2
	switch v {
	case aspeLinear:
		return core
	case aspeExponential:
		return math.Exp(clampExp(core))
	case aspeLogarithmic:
		arg := core + opt.Shift
		if arg <= 0 {
			panic(fmt.Sprintf("aspe: logarithmic leak argument %g not positive; increase aspeLeakOptions.Shift", arg))
		}
		return math.Log(arg)
	case aspeSquare:
		t := aspeDValue(p, q) + qr.R2
		return float64(qr.R1*t*t) + qr.R3
	default:
		panic(fmt.Sprintf("aspe: unknown variant %d", v))
	}
}

// clampExp bounds the exponent so the exponential variant stays finite on
// adversarially large toy inputs; attacks take ln first, so the clamp only
// guards the demo against overflow.
func clampExp(x float64) float64 {
	const lim = 700
	if x > lim {
		return lim
	}
	if x < -lim {
		return -lim
	}
	return x
}

// The known-plaintext attacks of Section III-A.
// The adversary holds a leaked plaintext subset P_leak together with the
// leakage values L(C_p, T_q) it can compute from the ciphertexts it stores,
// and recovers first the queries (Theorem 1 / Corollaries 1–2 / Theorem 2),
// then arbitrary database vectors.

// queryRecovery is the result of a query-recovery attack: the plaintext
// query plus the full recovered coefficient vector x (which the database
// recovery stage reuses).
type queryRecovery struct {
	Query []float64 // recovered q
	Coeff []float64 // recovered x = [r₁qᵀ, r₁, r₂] (linear family)
}

// recoverQueryLinear implements Theorem 1. Given d+2 known plaintexts and
// their leaked values L_i = [−2p_iᵀ, ‖p_i‖², 1]·x for one query, it solves
// M_c·x = b and returns q = x[:d]/x[d].
func recoverQueryLinear(known [][]float64, leaks []float64) (*queryRecovery, error) {
	d, rows, err := attackSystem(known, leaks)
	if err != nil {
		return nil, err
	}
	x, err := rows.Solve(leaks[:d+2])
	if err != nil {
		return nil, fmt.Errorf("aspe attack: design matrix singular (pick different known plaintexts): %w", err)
	}
	r1 := x[d]
	if r1 == 0 {
		return nil, fmt.Errorf("aspe attack: recovered r1 = 0")
	}
	q := make([]float64, d)
	for i := range q {
		q[i] = x[i] / r1
	}
	return &queryRecovery{Query: q, Coeff: x}, nil
}

// recoverQueryExponential implements Corollary 1: taking logarithms of the
// leaked values reduces the exponential variant to the linear case.
func recoverQueryExponential(known [][]float64, leaks []float64) (*queryRecovery, error) {
	lin := make([]float64, len(leaks))
	for i, v := range leaks {
		if v <= 0 {
			return nil, fmt.Errorf("aspe attack: exponential leak %d is non-positive (%g)", i, v)
		}
		lin[i] = math.Log(v)
	}
	return recoverQueryLinear(known, lin)
}

// recoverQueryLogarithmic implements Corollary 2: exponentiating the leaked
// values (and removing the public positivity shift) reduces the logarithmic
// variant to the linear case.
func recoverQueryLogarithmic(known [][]float64, leaks []float64, opt aspeLeakOptions) (*queryRecovery, error) {
	lin := make([]float64, len(leaks))
	for i, v := range leaks {
		lin[i] = math.Exp(v) - opt.Shift
	}
	return recoverQueryLinear(known, lin)
}

// squareFeatureDim returns the number of equations (and known plaintexts)
// Theorem 2's attack needs:
// 1 (‖p‖⁴) + d (‖p‖²p) + d (p², absorbing the ‖p‖² term) + d(d−1)/2 (cross)
// + d (p) + 1 (constant).
//
// Note: the paper's embedding (0.5d² + 2.5d + 3) lists ‖p‖² as a feature
// separate from the p_i² features, but ‖p‖² = Σ p_i² makes that system
// rank-deficient for every plaintext set. Merging the ‖p‖² coefficient into
// the p_i² block removes the redundancy, so the attack here needs exactly
// one equation fewer than the paper's bound — i.e. the paper's bound still
// suffices and the scheme is, if anything, slightly weaker than claimed.
func squareFeatureDim(d int) int { return 2 + 3*d + d*(d-1)/2 }

// squareFeatures returns φ(p), the feature embedding of a database vector
// under the square-leak expansion
//
//	L = r₁‖p‖⁴ − 4r₁‖p‖²(pᵀq) + 2r₁r₂‖p‖² + 4r₁(pᵀq)² − 4r₁r₂(pᵀq) + r₁r₂² + r₃.
func squareFeatures(p []float64) []float64 {
	d := len(p)
	out := make([]float64, 0, squareFeatureDim(d))
	// The float64 conversions here and in squareCoeff forbid fusing a
	// product into a sum, so every architecture rounds alike.
	var sq float64
	for _, v := range p {
		sq += float64(v * v)
	}
	out = append(out, sq*sq) // ‖p‖⁴
	for _, v := range p {    // ‖p‖²·p
		out = append(out, sq*v)
	}
	for _, v := range p { // p²  (diagonal of (pᵀq)² + the ‖p‖² term)
		out = append(out, v*v)
	}
	for i := 0; i < d; i++ { // p_i·p_j, i<j (cross terms of (pᵀq)²)
		for j := i + 1; j < d; j++ {
			out = append(out, p[i]*p[j])
		}
	}
	out = append(out, p...) // p  (the −4r₁r₂(pᵀq) term)
	out = append(out, 1)    // constant
	return out
}

// squareCoeff returns the coefficient vector c(q, qr) that pairs with
// squareFeatures so that L = φ(p)ᵀ·c.
func squareCoeff(q []float64, qr aspeQueryRand) []float64 {
	d := len(q)
	out := make([]float64, 0, squareFeatureDim(d))
	out = append(out, qr.R1)
	for _, v := range q {
		out = append(out, -4*qr.R1*v)
	}
	for _, v := range q {
		// 4r₁q_i² from (pᵀq)² plus 2r₁r₂ absorbed from the ‖p‖² term.
		out = append(out, float64(4*qr.R1*v*v)+float64(2*qr.R1*qr.R2))
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			out = append(out, 8*qr.R1*q[i]*q[j])
		}
	}
	for _, v := range q {
		out = append(out, -4*qr.R1*qr.R2*v)
	}
	out = append(out, float64(qr.R1*qr.R2*qr.R2)+qr.R3)
	return out
}

// squareQueryRecovery is the Theorem 2 attack result: the query plus its
// fully recovered coefficient vector (reused for database recovery).
type squareQueryRecovery struct {
	Query []float64
	Coeff []float64
}

// recoverQuerySquare implements Theorem 2. It needs
// squareFeatureDim(d) = 0.5d²+2.5d+3 known plaintexts with their leaked
// values for one query; it solves the feature system Φ·c = L and extracts
// q_i = −c[1+i]/(4·c[0]).
func recoverQuerySquare(known [][]float64, leaks []float64) (*squareQueryRecovery, error) {
	if len(known) == 0 {
		return nil, fmt.Errorf("aspe attack: no known plaintexts")
	}
	d := len(known[0])
	m := squareFeatureDim(d)
	if len(known) < m || len(leaks) < m {
		return nil, fmt.Errorf("aspe attack: square recovery needs %d known plaintexts, have %d", m, len(known))
	}
	rows := make([][]float64, m)
	for i := 0; i < m; i++ {
		rows[i] = squareFeatures(known[i])
	}
	c, err := fromRows(rows).Solve(leaks[:m])
	if err != nil {
		return nil, fmt.Errorf("aspe attack: square feature matrix singular: %w", err)
	}
	r1 := c[0]
	if r1 == 0 {
		return nil, fmt.Errorf("aspe attack: recovered r1 = 0")
	}
	q := make([]float64, d)
	for i := range q {
		q[i] = -c[1+i] / (4 * r1)
	}
	return &squareQueryRecovery{Query: q, Coeff: c}, nil
}

// recoverDatabaseVector implements the second stage of Theorem 1: with d+2
// recovered query coefficient vectors x_j and the leaked values
// L_j = [−2pᵀ, ‖p‖², 1]·x_j of an unknown database vector p, it solves for
// p′ = [−2pᵀ, ‖p‖², t] and returns p (checking the t ≈ 1 consistency).
func recoverDatabaseVector(recovered []*queryRecovery, leaks []float64) ([]float64, error) {
	if len(recovered) == 0 {
		return nil, fmt.Errorf("aspe attack: no recovered queries")
	}
	n := len(recovered[0].Coeff) // d+2
	d := n - 2
	if len(recovered) < n || len(leaks) < n {
		return nil, fmt.Errorf("aspe attack: database recovery needs %d recovered queries, have %d", n, len(recovered))
	}
	rows := make([][]float64, n)
	for j := 0; j < n; j++ {
		rows[j] = recovered[j].Coeff
	}
	y, err := fromRows(rows).Solve(leaks[:n])
	if err != nil {
		return nil, fmt.Errorf("aspe attack: query coefficient matrix singular: %w", err)
	}
	if math.Abs(y[n-1]-1) > 1e-4 {
		return nil, fmt.Errorf("aspe attack: consistency check failed (t = %g, want 1)", y[n-1])
	}
	p := make([]float64, d)
	for i := range p {
		p[i] = y[i] / -2
	}
	return p, nil
}

// attackSystem validates attack inputs and builds the (d+2)×(d+2) design
// matrix whose rows are [−2p_iᵀ, ‖p_i‖², 1].
func attackSystem(known [][]float64, leaks []float64) (int, *matrix.Dense, error) {
	if len(known) == 0 {
		return 0, nil, fmt.Errorf("aspe attack: no known plaintexts")
	}
	d := len(known[0])
	need := d + 2
	if len(known) < need || len(leaks) < need {
		return 0, nil, fmt.Errorf("aspe attack: need %d known plaintexts and leaks, have %d/%d", need, len(known), len(leaks))
	}
	rows := make([][]float64, need)
	for i := 0; i < need; i++ {
		rows[i] = aspeExtendDB(known[i])
	}
	return d, fromRows(rows), nil
}

// The ASPE scheme itself: the tests encrypt with it to show that what
// aspeLeak simulates is what a server computes from real ciphertexts.

// aspeScheme is an ASPE key pair for d-dimensional vectors.
type aspeScheme struct {
	dim  int
	m    *matrix.Dense // (d+2)², encrypts database vectors
	mInv *matrix.Dense

	mu  sync.Mutex
	rnd *rng.Rand
}

// aspeKeyGen creates an ASPE scheme instance.
func aspeKeyGen(r *rng.Rand, dim int) (*aspeScheme, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("aspe: non-positive dimension %d", dim)
	}
	m, mInv := matrix.RandomInvertible(r, dim+2)
	return &aspeScheme{dim: dim, m: m, mInv: mInv, rnd: rng.Derive(r, 0xa59e)}, nil
}

// encryptDB encrypts a database vector: C_p = Mᵀ·p′.
func (s *aspeScheme) encryptDB(p []float64) []float64 {
	if len(p) != s.dim {
		panic(fmt.Sprintf("aspe: encrypting %d-dim vector with %d-dim key", len(p), s.dim))
	}
	// Mᵀ·p′ equals p′ᵀ·M read as a column.
	return vecMul(nil, s.m, aspeExtendDB(p))
}

// newQueryRand draws fresh per-query randomness (r₁ positive).
func (s *aspeScheme) newQueryRand() aspeQueryRand {
	s.mu.Lock()
	defer s.mu.Unlock()
	return aspeQueryRand{
		R1: rng.Uniform(s.rnd, 0.5, 2),
		R2: rng.UniformNonZero(s.rnd, 0.5, 2),
		R3: rng.UniformNonZero(s.rnd, 0.5, 2),
	}
}

// encryptQuery produces the trapdoor T_q = M⁻¹·[r₁qᵀ, r₁, r₂]ᵀ.
func (s *aspeScheme) encryptQuery(q []float64, qr aspeQueryRand) []float64 {
	if len(q) != s.dim {
		panic(fmt.Sprintf("aspe: query of dim %d with %d-dim key", len(q), s.dim))
	}
	ext := make([]float64, s.dim+2)
	for i, v := range q {
		ext[i] = qr.R1 * v
	}
	ext[s.dim] = qr.R1
	ext[s.dim+1] = qr.R2
	return s.mInv.MulVec(nil, ext)
}

// recoverDatabaseVectorSquare is the symmetric second stage of Theorem 2:
// with m = 0.5d²+2.5d+3 recovered square-variant coefficient vectors c_j and
// the leaked values L_j = φ(p)ᵀ·c_j of an unknown p, it solves for φ(p) and
// reads p off the linear block of the feature vector.
func recoverDatabaseVectorSquare(recovered []*squareQueryRecovery, leaks []float64) ([]float64, error) {
	if len(recovered) == 0 {
		return nil, fmt.Errorf("aspe attack: no recovered queries")
	}
	m := len(recovered[0].Coeff)
	if len(recovered) < m || len(leaks) < m {
		return nil, fmt.Errorf("aspe attack: square database recovery needs %d recovered queries, have %d", m, len(recovered))
	}
	rows := make([][]float64, m)
	for j := 0; j < m; j++ {
		rows[j] = recovered[j].Coeff
	}
	phi, err := fromRows(rows).Solve(leaks[:m])
	if err != nil {
		return nil, fmt.Errorf("aspe attack: coefficient matrix singular: %w", err)
	}
	d := len(recovered[0].Query)
	// φ layout: [‖p‖⁴ | ‖p‖²p (d) | p² (d) | cross (d(d−1)/2) | p (d) | 1].
	start := 1 + d + d + d*(d-1)/2
	p := make([]float64, d)
	copy(p, phi[start:start+d])
	return p, nil
}

func TestASPEKeyGenValidation(t *testing.T) {
	if _, err := aspeKeyGen(rng.NewSeeded(1), 0); err == nil {
		t.Fatal("expected error for dim 0")
	}
}

func TestASPEInnerProductRecoversLinearLeak(t *testing.T) {
	// The basic scheme: C_pᵀ·T_q computed purely over ciphertexts must
	// equal r₁·D(p,q) + r₂.
	r := rng.NewSeeded(2)
	dim := 16
	s, err := aspeKeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		p := rng.Gaussian(r, nil, dim)
		q := rng.Gaussian(r, nil, dim)
		qr := s.newQueryRand()
		got := vec.Dot(s.encryptDB(p), s.encryptQuery(q, qr))
		want := qr.R1*aspeDValue(p, q) + qr.R2
		if math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("inner product %g, want %g", got, want)
		}
	}
}

func TestASPELinearLeakOrdersLikeDistance(t *testing.T) {
	// For a fixed query, the leaked value must rank candidates exactly by
	// distance (that is why ASPE "works" before it is broken).
	r := rng.NewSeeded(3)
	dim := 8
	s, err := aspeKeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	q := rng.Gaussian(r, nil, dim)
	qr := s.newQueryRand()
	tq := s.encryptQuery(q, qr)
	for trial := 0; trial < 50; trial++ {
		o := rng.Gaussian(r, nil, dim)
		p := rng.Gaussian(r, nil, dim)
		lo := vec.Dot(s.encryptDB(o), tq)
		lp := vec.Dot(s.encryptDB(p), tq)
		if (lo < lp) != (vec.SqDist(o, q) < vec.SqDist(p, q)) {
			t.Fatal("leak ordering disagrees with distance ordering")
		}
	}
}

func TestASPESquareCoeffIdentity(t *testing.T) {
	// φ(p)ᵀ·c(q) must reproduce the square leak exactly.
	r := rng.NewSeeded(4)
	dim := 6
	for trial := 0; trial < 30; trial++ {
		p := rng.Gaussian(r, nil, dim)
		q := rng.Gaussian(r, nil, dim)
		qr := aspeQueryRand{R1: 1.3, R2: -0.7, R3: 2.1}
		want := aspeLeak(aspeSquare, p, q, qr, aspeLeakOptions{})
		got := vec.Dot(squareFeatures(p), squareCoeff(q, qr))
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("feature identity broken: %g vs %g", got, want)
		}
	}
}

// leakSet computes the leaks of all known plaintexts for one query.
func leakSet(v aspeVariant, known [][]float64, q []float64, qr aspeQueryRand, opt aspeLeakOptions) []float64 {
	out := make([]float64, len(known))
	for i, p := range known {
		out[i] = aspeLeak(v, p, q, qr, opt)
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

func TestASPETheorem1LinearAttack(t *testing.T) {
	r := rng.NewSeeded(5)
	dim := 16
	known := randomPlaintexts(r, dim+2, dim)
	q := rng.Gaussian(r, nil, dim)
	qr := aspeQueryRand{R1: 1.7, R2: -0.4}
	rec, err := recoverQueryLinear(known, leakSet(aspeLinear, known, q, qr, aspeLeakOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(rec.Query, q, 1e-6) {
		t.Fatalf("query not recovered: %v vs %v", rec.Query[:3], q[:3])
	}
}

func TestASPECorollary1ExponentialAttack(t *testing.T) {
	r := rng.NewSeeded(6)
	dim := 12
	known := randomPlaintexts(r, dim+2, dim)
	q := rng.Gaussian(r, nil, dim)
	qr := aspeQueryRand{R1: 0.9, R2: 1.1}
	rec, err := recoverQueryExponential(known, leakSet(aspeExponential, known, q, qr, aspeLeakOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(rec.Query, q, 1e-6) {
		t.Fatal("query not recovered from exponential leaks")
	}
}

func TestASPECorollary2LogarithmicAttack(t *testing.T) {
	r := rng.NewSeeded(7)
	dim := 12
	known := randomPlaintexts(r, dim+2, dim)
	q := rng.Gaussian(r, nil, dim)
	qr := aspeQueryRand{R1: 1.2, R2: 0.8}
	opt := aspeLeakOptions{Shift: 200} // public protocol constant keeping log args positive
	rec, err := recoverQueryLogarithmic(known, leakSet(aspeLogarithmic, known, q, qr, opt), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(rec.Query, q, 1e-6) {
		t.Fatal("query not recovered from logarithmic leaks")
	}
}

func TestASPETheorem2SquareAttack(t *testing.T) {
	r := rng.NewSeeded(8)
	dim := 8
	m := squareFeatureDim(dim)
	known := randomPlaintexts(r, m, dim)
	q := rng.Gaussian(r, nil, dim)
	qr := aspeQueryRand{R1: 1.4, R2: -0.6, R3: 0.9}
	rec, err := recoverQuerySquare(known, leakSet(aspeSquare, known, q, qr, aspeLeakOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(rec.Query, q, 1e-5) {
		t.Fatal("query not recovered from square leaks")
	}
}

func TestASPETheorem1DatabaseRecovery(t *testing.T) {
	// Full pipeline: recover d+2 queries, then recover an unseen database
	// vector from its leaks alone.
	r := rng.NewSeeded(9)
	dim := 10
	known := randomPlaintexts(r, dim+2, dim)
	var recs []*queryRecovery
	for j := 0; j < dim+2; j++ {
		q := rng.Gaussian(r, nil, dim)
		qr := aspeQueryRand{R1: rng.Uniform(r, 0.5, 2), R2: rng.UniformNonZero(r, 0.5, 2)}
		rec, err := recoverQueryLinear(known, leakSet(aspeLinear, known, q, qr, aspeLeakOptions{}))
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
		leaks[j] = vec.Dot(aspeExtendDB(secret), rec.Coeff)
	}
	got, err := recoverDatabaseVector(recs, leaks)
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(got, secret, 1e-6) {
		t.Fatal("database vector not recovered")
	}
}

func TestASPETheorem2DatabaseRecovery(t *testing.T) {
	r := rng.NewSeeded(10)
	dim := 5
	m := squareFeatureDim(dim)
	known := randomPlaintexts(r, m, dim)
	var recs []*squareQueryRecovery
	for j := 0; j < m; j++ {
		q := rng.Gaussian(r, nil, dim)
		qr := aspeQueryRand{
			R1: rng.Uniform(r, 0.5, 2),
			R2: rng.UniformNonZero(r, 0.5, 2),
			R3: rng.UniformNonZero(r, 0.5, 2),
		}
		rec, err := recoverQuerySquare(known, leakSet(aspeSquare, known, q, qr, aspeLeakOptions{}))
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

func TestASPEEndToEndCiphertextAttack(t *testing.T) {
	// Theorem 1 with leaks computed *from real ciphertexts*, exactly as the
	// honest-but-curious server would.
	r := rng.NewSeeded(11)
	dim := 12
	s, err := aspeKeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	known := randomPlaintexts(r, dim+2, dim)
	cts := make([][]float64, len(known))
	for i, p := range known {
		cts[i] = s.encryptDB(p)
	}
	q := rng.Gaussian(r, nil, dim)
	tq := s.encryptQuery(q, s.newQueryRand())
	leaks := make([]float64, len(cts))
	for i, c := range cts {
		leaks[i] = vec.Dot(c, tq)
	}
	rec, err := recoverQueryLinear(known, leaks)
	if err != nil {
		t.Fatal(err)
	}
	if !kerneltest.ApproxEqual(rec.Query, q, 1e-6) {
		t.Fatal("ciphertext-only attack failed to recover the query")
	}
}

func TestASPEAttackInputValidation(t *testing.T) {
	if _, err := recoverQueryLinear(nil, nil); err == nil {
		t.Fatal("expected error for empty inputs")
	}
	known := randomPlaintexts(rng.NewSeeded(12), 3, 8) // too few
	if _, err := recoverQueryLinear(known, make([]float64, 3)); err == nil {
		t.Fatal("expected error for too few known plaintexts")
	}
	if _, err := recoverQueryExponential(known, []float64{-1, 1, 1}); err == nil {
		t.Fatal("expected error for non-positive exponential leak")
	}
	if _, err := recoverQuerySquare(known, make([]float64, 3)); err == nil {
		t.Fatal("expected error for too few square plaintexts")
	}
	if _, err := recoverDatabaseVector(nil, nil); err == nil {
		t.Fatal("expected error for no recovered queries")
	}
	if _, err := recoverDatabaseVectorSquare(nil, nil); err == nil {
		t.Fatal("expected error for no recovered square queries")
	}
}

func TestASPEVariantString(t *testing.T) {
	for v, want := range map[aspeVariant]string{
		aspeLinear: "linear", aspeExponential: "exponential",
		aspeLogarithmic: "logarithmic", aspeSquare: "square", aspeVariant(9): "variant(9)",
	} {
		if v.String() != want {
			t.Fatalf("String() = %q, want %q", v.String(), want)
		}
	}
}
