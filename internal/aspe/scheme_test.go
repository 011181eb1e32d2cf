package aspe

import (
	"fmt"
	"sync"

	"ppanns/internal/matrix"
	"ppanns/internal/rng"
)

// The ASPE scheme itself: the tests encrypt with it to show that what
// LeakedValue simulates is what a server computes from real ciphertexts.

// Scheme is an ASPE key pair for d-dimensional vectors.
type Scheme struct {
	dim  int
	m    *matrix.Dense // (d+2)², encrypts database vectors
	mInv *matrix.Dense

	mu  sync.Mutex
	rnd *rng.Rand
}

// KeyGen creates an ASPE scheme instance.
func KeyGen(r *rng.Rand, dim int) (*Scheme, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("aspe: non-positive dimension %d", dim)
	}
	m, mInv := matrix.RandomInvertible(r, dim+2)
	return &Scheme{dim: dim, m: m, mInv: mInv, rnd: rng.Derive(r, 0xa59e)}, nil
}

// Dim returns the plaintext dimension.
func (s *Scheme) Dim() int { return s.dim }

// EncryptDB encrypts a database vector: C_p = Mᵀ·p′.
func (s *Scheme) EncryptDB(p []float64) []float64 {
	if len(p) != s.dim {
		panic(fmt.Sprintf("aspe: encrypting %d-dim vector with %d-dim key", len(p), s.dim))
	}
	// Mᵀ·p′ equals p′ᵀ·M read as a column.
	return s.m.VecMul(nil, ExtendDB(p))
}

// NewQueryRand draws fresh per-query randomness (r₁ positive).
func (s *Scheme) NewQueryRand() QueryRand {
	s.mu.Lock()
	defer s.mu.Unlock()
	return QueryRand{
		R1: rng.Uniform(s.rnd, 0.5, 2),
		R2: rng.UniformNonZero(s.rnd, 0.5, 2),
		R3: rng.UniformNonZero(s.rnd, 0.5, 2),
	}
}

// EncryptQuery produces the trapdoor T_q = M⁻¹·[r₁qᵀ, r₁, r₂]ᵀ.
func (s *Scheme) EncryptQuery(q []float64, qr QueryRand) []float64 {
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
func recoverDatabaseVectorSquare(recovered []*SquareQueryRecovery, leaks []float64) ([]float64, error) {
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
	phi, err := matrix.FromRows(rows).Solve(leaks[:m])
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
