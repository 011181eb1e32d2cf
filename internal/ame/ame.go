// Package ame implements asymmetric matrix encryption, the secure but
// costly distance-comparison baseline the paper revisits in Section III-C
// (Zheng et al., TDSC 2024).
//
// The reference implementation is not public, so this is a functional
// reconstruction that matches the published interface and cost profile
// exactly:
//
//   - secret key: 32 random invertible matrices in R^(2d+6)×(2d+6);
//   - each database vector encrypts to 32 vectors in R^(2d+6)
//     (16 "left-role" + 16 "right-role" shares);
//   - each query encrypts to 16 matrices in R^(2d+6)×(2d+6);
//   - one secure distance comparison evaluates 16 vector-matrix products
//     plus 16 inner products: 16·((2d+6)² + (2d+6)) = 64d² + 416d + 672
//     multiply-accumulate operations, i.e. Θ(d²) versus DCE's Θ(d).
//
// Construction. Extend u to x_u = r_u·[‖u‖², uᵀ, 1, junk] ∈ R^(2d+6) (junk
// entries are fresh randomness with zero weight in the comparison form).
// Define the sparse bilinear form Q(q) with x_oᵀ·Q·x_p =
// r_o·r_p·(dist(o,q) − dist(p,q)), split Q into 16 additive random shares
// Q_i, and hide each share between key matrices: T_i = r_q·A_i⁻ᵀ·Q_i·B_i⁻¹.
// With left shares L_i(o) = A_i·x_o and right shares R_i(p) = B_i·x_p the
// server computes Σᵢ L_i(o)ᵀ·T_i·R_i(p) = r_o·r_p·r_q·(dist(o,q) −
// dist(p,q)), whose sign answers the comparison.
package ame

import (
	"fmt"
	"sync"

	"ppanns/internal/matrix"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// Shares is the number of additive shares (16 query matrices, 2×16 database
// vectors), matching the scheme the paper describes.
const Shares = 16

// Key is the AME secret key: 32 invertible matrices plus their
// query-side counterparts.
type Key struct {
	dim   int
	ext   int     // 2d+6
	scale float64 // uniform input scaling, same rationale as dce.KeyGen's scale

	a     [Shares]*matrix.Dense // left-share encryption matrices
	b     [Shares]*matrix.Dense // right-share encryption matrices
	aInvT [Shares]*matrix.Dense // A_i⁻ᵀ (query side)
	bInv  [Shares]*matrix.Dense // B_i⁻¹ (query side)

	mu  sync.Mutex
	rnd *rng.Rand
}

// Ciphertext is C_AME(u): 16 left-role and 16 right-role share vectors,
// 32 vectors of dimension 2d+6 in total.
type Ciphertext struct {
	L [Shares][]float64
	R [Shares][]float64
}

// Trapdoor is T_q: 16 matrices in R^(2d+6)×(2d+6).
type Trapdoor struct {
	T [Shares]*matrix.Dense
}

// KeyGen generates an AME key for d-dimensional vectors.
func KeyGen(r *rng.Rand, dim int) (*Key, error) { return KeyGenScaled(r, dim, 1) }

// KeyGenScaled is KeyGen with a uniform input scale (see dce.KeyGen
// for why O(1)-magnitude inputs matter for float64 comparison headroom).
func KeyGenScaled(r *rng.Rand, dim int, scale float64) (*Key, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("ame: non-positive dimension %d", dim)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("ame: non-positive input scale %g", scale)
	}
	k := &Key{dim: dim, ext: 2*dim + 6, scale: scale, rnd: rng.Derive(r, 0xa3e)}
	for i := 0; i < Shares; i++ {
		ai, aInv := matrix.RandomInvertible(r, k.ext)
		k.a[i] = ai
		k.aInvT[i] = aInv.Transpose()
		k.b[i], k.bInv[i] = matrix.RandomInvertible(r, k.ext)
	}
	return k, nil
}

// Dim returns the plaintext dimension.
func (k *Key) Dim() int { return k.dim }

// extend builds x_u = r_u·[‖u‖², uᵀ, 1, junk...] with fresh junk randomness
// drawn from r.
func (k *Key) extend(r *rng.Rand, u []float64) []float64 {
	x := make([]float64, k.ext)
	ru := rng.Uniform(r, 0.5, 2)
	for i := k.dim + 2; i < k.ext; i++ {
		x[i] = r.NormFloat64()
	}
	// The float64 conversions here and in comparisonForm forbid fusing a
	// product into a sum, so every architecture rounds alike.
	var sq float64
	for i, v := range u {
		sv := k.scale * v
		x[1+i] = ru * sv
		sq += float64(sv * sv)
	}
	x[0] = ru * sq
	x[k.dim+1] = ru
	return x
}

// Encrypt encrypts one database vector into its 32 share vectors, drawing
// its randomness from the key's own sequential stream.
func (k *Key) Encrypt(u []float64) *Ciphertext {
	k.checkDim(u)
	k.mu.Lock()
	xo, xp := k.extend(k.rnd, u), k.extend(k.rnd, u)
	k.mu.Unlock()
	return k.share(xo, xp)
}

// EncryptWith is Encrypt drawing from r instead of the key's stream and
// taking no lock: bulk encryption gives every record its own stream so the
// ciphertexts do not depend on worker scheduling.
func (k *Key) EncryptWith(r *rng.Rand, u []float64) *Ciphertext {
	k.checkDim(u)
	return k.share(k.extend(r, u), k.extend(r, u))
}

func (k *Key) checkDim(u []float64) {
	if len(u) != k.dim {
		panic(fmt.Sprintf("ame: encrypting %d-dim vector with %d-dim key", len(u), k.dim))
	}
}

// share multiplies the two extended vectors into the 16 left-role and 16
// right-role shares. The randomizers are independent per role: a vector
// compared as o and as p must not share extension randomness.
func (k *Key) share(xo, xp []float64) *Ciphertext {
	ct := &Ciphertext{}
	for i := 0; i < Shares; i++ {
		ct.L[i] = k.a[i].MulVec(nil, xo)
		ct.R[i] = k.b[i].MulVec(nil, xp)
	}
	return ct
}

// comparisonForm builds the sparse bilinear form Q with
// x_oᵀ·Q·x_p = r_o·r_p·(dist(o,q) − dist(p,q)) for extended vectors.
func (k *Key) comparisonForm(q []float64) *matrix.Dense {
	Q := matrix.NewDense(k.ext, k.ext)
	c := k.dim + 1  // index of the constant-1 slot
	Q.Set(0, c, 1)  // + ‖o‖²
	Q.Set(c, 0, -1) // − ‖p‖²
	for i, v := range q {
		sv := float64(k.scale * v)
		Q.Set(1+i, c, -2*sv) // − 2oᵀq
		Q.Set(c, 1+i, 2*sv)  // + 2pᵀq
	}
	return Q
}

// TrapGen encrypts a query into its 16 trapdoor matrices
// T_i = r_q·A_i⁻ᵀ·Q_i·B_i⁻¹ where Q = Σ Q_i is a fresh additive sharing.
// This is the scheme's heavy user-side operation: Θ(d³) per query.
func (k *Key) TrapGen(q []float64) *Trapdoor {
	if len(q) != k.dim {
		panic(fmt.Sprintf("ame: query of dim %d with %d-dim key", len(q), k.dim))
	}
	Q := k.comparisonForm(q)

	// Additive sharing: 15 random matrices plus the remainder.
	shares := make([]*matrix.Dense, Shares)
	k.mu.Lock()
	rq := rng.Uniform(k.rnd, 0.5, 2)
	rest := Q.Clone()
	for i := 0; i < Shares-1; i++ {
		s := matrix.NewDense(k.ext, k.ext)
		raw := s.Raw()
		for j := range raw {
			raw[j] = k.rnd.NormFloat64()
		}
		shares[i] = s
		for j, v := range s.Raw() {
			rest.Raw()[j] -= v
		}
	}
	k.mu.Unlock()
	shares[Shares-1] = rest

	td := &Trapdoor{}
	for i := 0; i < Shares; i++ {
		t := matrix.Mul(k.aInvT[i], matrix.Mul(shares[i], k.bInv[i]))
		for j := range t.Raw() {
			t.Raw()[j] *= rq
		}
		td.T[i] = t
	}
	return td
}

// Compare evaluates Σᵢ L_i(o)ᵀ·T_i·R_i(p) = r·(dist(o,q) − dist(p,q)) with
// r > 0; its sign answers whether o or p is closer to q. The work is 16
// vector-matrix products plus 16 inner products — the 64d²+O(d) MACs the
// paper cites.
func Compare(co, cp *Ciphertext, td *Trapdoor) float64 {
	var z float64
	var buf []float64
	for i := 0; i < Shares; i++ {
		buf = td.T[i].VecMul(buf, co.L[i])
		z += vec.Dot(buf, cp.R[i])
	}
	return z
}
