// Package dcpe implements distance-comparison-preserving encryption via the
// Scale-and-Perturb (SAP) construction the paper adopts from Fuchsbauer et
// al. (Section III-B and Algorithm 1).
//
// SAP encrypts p as C = s·p + λ where s is a secret scaling factor and λ is
// drawn uniformly from the ball B(0, sβ/4). The map is a β-DCP function:
// for any o, p, q, if dist(o,q) < dist(p,q) − β (Euclidean, unsquared) then
// dist(C_o, C_q) < dist(C_p, C_q). Distances between ciphertexts therefore
// approximate s·dist between plaintexts within ±sβ/2, which is what makes
// an HNSW graph built over SAP ciphertexts a useful — but privacy-hardened —
// filter index.
//
// Following the paper's deployment (Section V-A), decryption material is
// deliberately not retained: ciphertexts live on the server and are never
// decrypted.
package dcpe

import (
	"fmt"
	"math"
	"sync"

	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// Key holds the SAP secret keys: the scaling factor s and the perturbation
// bound β.
type Key struct {
	s    float64
	beta float64
	dim  int

	mu  sync.Mutex
	rnd *rng.Rand
}

// KeyGen creates a SAP key for d-dimensional vectors. The paper sets
// s = 1024 and tunes β per dataset inside BetaRange; β = 0 yields exact
// (scaled) distances and no privacy, larger β trades accuracy for privacy.
func KeyGen(r *rng.Rand, dim int, s, beta float64) (*Key, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("dcpe: non-positive dimension %d", dim)
	}
	if !(s > 0) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("dcpe: scaling factor must be positive and finite, got %g", s)
	}
	if !(beta >= 0) || math.IsInf(beta, 0) {
		return nil, fmt.Errorf("dcpe: beta must be non-negative and finite, got %g", beta)
	}
	return &Key{s: s, beta: beta, dim: dim, rnd: rng.Derive(r, 0xdc9e)}, nil
}

// S returns the scaling factor.
func (k *Key) S() float64 { return k.s }

// Beta returns the perturbation bound β.
func (k *Key) Beta() float64 { return k.beta }

// Dim returns the vector dimension.
func (k *Key) Dim() int { return k.dim }

// MaxNoise returns sβ/4, the radius of the perturbation ball — every
// ciphertext satisfies ‖C − s·p‖ ≤ MaxNoise().
func (k *Key) MaxNoise() float64 { return k.s * k.beta / 4 }

// BetaRange returns the recommended [√M, 2M√d] range for β, where
// M = max_p max_i |p_i| (Section V-A).
func BetaRange(maxAbs float64, dim int) (lo, hi float64) {
	return math.Sqrt(maxAbs), 2 * maxAbs * math.Sqrt(float64(dim))
}

// Encrypt implements Algorithm 1 (EncSAP): C = s·p + λ with λ uniform in
// the ball of radius sβ/4, drawn from the key's own sequential stream. It
// is safe for concurrent use.
func (k *Key) Encrypt(p []float64) []float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.EncryptWith(nil, k.rnd, p)
}

// EncryptWith is Encrypt drawing the perturbation from r instead of the
// key's stream and taking no lock: bulk encryption gives every record its
// own stream so the ciphertexts do not depend on worker scheduling. It
// writes the ciphertext into dst, which must hold Dim floats, or into a
// fresh slice when dst is nil, and returns it.
func (k *Key) EncryptWith(dst []float64, r *rng.Rand, p []float64) []float64 {
	if len(p) != k.dim {
		panic(fmt.Sprintf("dcpe: encrypting %d-dim vector with %d-dim key", len(p), k.dim))
	}
	if k.beta == 0 {
		return vec.Scale(dst, k.s, p)
	}
	// The output doubles as the buffer for u until its norm is known.
	out := rng.Gaussian(r, dst, k.dim) // Line 1: u ← N(0_d, I_d)
	xp := r.Float64()                  // Line 2: x′ ← U(0, 1)

	// Line 3: x ← (sβ/4)·x′^(1/d); Line 4: λ = x·u/‖u‖.
	x := k.MaxNoise() * math.Pow(xp, 1/float64(k.dim))
	norm := vec.Norm(out)
	if norm == 0 {
		return vec.Scale(out, k.s, p) // astronomically unlikely; treat as zero perturbation
	}
	c := x / norm
	for i, u := range out {
		out[i] = float64(k.s*p[i]) + float64(c*u) // Line 5: C = s·p + λ
	}
	return out
}
