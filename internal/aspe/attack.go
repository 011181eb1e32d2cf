package aspe

import (
	"fmt"
	"math"

	"ppanns/internal/matrix"
)

// This file implements the known-plaintext attacks of Section III-A.
// The adversary holds a leaked plaintext subset P_leak together with the
// leakage values L(C_p, T_q) it can compute from the ciphertexts it stores,
// and recovers first the queries (Theorem 1 / Corollaries 1–2 / Theorem 2),
// then arbitrary database vectors.

// QueryRecovery is the result of a query-recovery attack: the plaintext
// query plus the full recovered coefficient vector x (which the database
// recovery stage reuses).
type QueryRecovery struct {
	Query []float64 // recovered q
	Coeff []float64 // recovered x = [r₁qᵀ, r₁, r₂] (linear family)
}

// RecoverQueryLinear implements Theorem 1. Given d+2 known plaintexts and
// their leaked values L_i = [−2p_iᵀ, ‖p_i‖², 1]·x for one query, it solves
// M_c·x = b and returns q = x[:d]/x[d].
func RecoverQueryLinear(known [][]float64, leaks []float64) (*QueryRecovery, error) {
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
	return &QueryRecovery{Query: q, Coeff: x}, nil
}

// RecoverQueryExponential implements Corollary 1: taking logarithms of the
// leaked values reduces the exponential variant to the linear case.
func RecoverQueryExponential(known [][]float64, leaks []float64) (*QueryRecovery, error) {
	lin := make([]float64, len(leaks))
	for i, v := range leaks {
		if v <= 0 {
			return nil, fmt.Errorf("aspe attack: exponential leak %d is non-positive (%g)", i, v)
		}
		lin[i] = math.Log(v)
	}
	return RecoverQueryLinear(known, lin)
}

// RecoverQueryLogarithmic implements Corollary 2: exponentiating the leaked
// values (and removing the public positivity shift) reduces the logarithmic
// variant to the linear case.
func RecoverQueryLogarithmic(known [][]float64, leaks []float64, opt LeakOptions) (*QueryRecovery, error) {
	lin := make([]float64, len(leaks))
	for i, v := range leaks {
		lin[i] = math.Exp(v) - opt.Shift
	}
	return RecoverQueryLinear(known, lin)
}

// SquareFeatureDim returns the number of equations (and known plaintexts)
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
func SquareFeatureDim(d int) int { return 2 + 3*d + d*(d-1)/2 }

// squareFeatures returns φ(p), the feature embedding of a database vector
// under the square-leak expansion
//
//	L = r₁‖p‖⁴ − 4r₁‖p‖²(pᵀq) + 2r₁r₂‖p‖² + 4r₁(pᵀq)² − 4r₁r₂(pᵀq) + r₁r₂² + r₃.
func squareFeatures(p []float64) []float64 {
	d := len(p)
	out := make([]float64, 0, SquareFeatureDim(d))
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
func squareCoeff(q []float64, qr QueryRand) []float64 {
	d := len(q)
	out := make([]float64, 0, SquareFeatureDim(d))
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

// SquareQueryRecovery is the Theorem 2 attack result: the query plus its
// fully recovered coefficient vector (reused for database recovery).
type SquareQueryRecovery struct {
	Query []float64
	Coeff []float64
}

// RecoverQuerySquare implements Theorem 2. It needs
// SquareFeatureDim(d) = 0.5d²+2.5d+3 known plaintexts with their leaked
// values for one query; it solves the feature system Φ·c = L and extracts
// q_i = −c[1+i]/(4·c[0]).
func RecoverQuerySquare(known [][]float64, leaks []float64) (*SquareQueryRecovery, error) {
	if len(known) == 0 {
		return nil, fmt.Errorf("aspe attack: no known plaintexts")
	}
	d := len(known[0])
	m := SquareFeatureDim(d)
	if len(known) < m || len(leaks) < m {
		return nil, fmt.Errorf("aspe attack: square recovery needs %d known plaintexts, have %d", m, len(known))
	}
	rows := make([][]float64, m)
	for i := 0; i < m; i++ {
		rows[i] = squareFeatures(known[i])
	}
	c, err := matrix.FromRows(rows).Solve(leaks[:m])
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
	return &SquareQueryRecovery{Query: q, Coeff: c}, nil
}

// RecoverDatabaseVector implements the second stage of Theorem 1: with d+2
// recovered query coefficient vectors x_j and the leaked values
// L_j = [−2pᵀ, ‖p‖², 1]·x_j of an unknown database vector p, it solves for
// p′ = [−2pᵀ, ‖p‖², t] and returns p (checking the t ≈ 1 consistency).
func RecoverDatabaseVector(recovered []*QueryRecovery, leaks []float64) ([]float64, error) {
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
	y, err := matrix.FromRows(rows).Solve(leaks[:n])
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
		rows[i] = ExtendDB(known[i])
	}
	return d, matrix.FromRows(rows), nil
}
