// Package dce implements Distance Comparison Encryption, the primary
// contribution of the paper (Section IV). DCE answers, over ciphertexts
// only, whether dist(o, q) < dist(p, q) — securely, exactly and in O(d) per
// comparison — without ever revealing a distance value.
//
// The scheme has four operations mirroring the paper:
//
//	KeyGen(1^ζ, d)            → Key
//	Enc(p, SK)                → Ciphertext  (database vectors, one record)
//	TrapGen(q, SK)            → Trapdoor    (query vectors)
//	DistanceComp(Co, Cp, Tq)  → sign of dist(o,q) − dist(p,q)
//
// Encryption proceeds in two phases. Vector randomization (steps 1–4 of
// Section IV-A) maps p ∈ R^d to p̄ ∈ R^(d+8) such that p̄ᵀq̄ = ‖p‖² − 2pᵀq:
// a ± pairing transform, a shared random permutation π₁, a split into two
// halves padded with cancelling randomness, multiplication by secret
// invertible matrices M₁/M₂ and a second permutation π₂. Vector
// transformation (Equations 8–15) then hides p̄ behind the split halves of a
// secret matrix M₃ ∈ R^(2d+16)×(2d+16) and four key vectors kv₁..kv₄ with
// kv₁◦kv₃ = kv₂◦kv₄, yielding four ciphertext vectors per database point and
// one trapdoor vector per query. A ciphertext is held as one flat record
// [P1|P2|P3|P4] of 4·(2d+16) floats, the form CiphertextStore keeps and
// the wire carries.
//
// The query side is linear in what its randomization places: steps 1–3 put
// q, β₁, β₂ and r₁..r₄ into x = [q₁; q₂] ∈ R^(d+8), and everything after
// that — M₁⁻¹, M₂⁻¹, π₂, M₃⁻¹ over the stacked [q̄; −q̄] and kv₂◦kv₄ — is one
// fixed (2d+16)×(d+8) matrix Q, folded at KeyGen. A trapdoor is r_q·Q·x: one
// matrix-vector product, and the key keeps neither M₃⁻¹ nor M₁⁻¹/M₂⁻¹.
//
// Correctness (Theorem 3): DistanceComp returns
// 2·r_o·r_p·r_q·(dist(o,q) − dist(p,q)) with all three r's positive, so the
// sign answers the comparison exactly (up to float64 rounding of genuinely
// tied distances).
package dce

import (
	"fmt"
	"sync"

	"ppanns/internal/matrix"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// Randomizer value ranges. Per-vector randomness is drawn uniformly from
// ±[randLo, randHi) (scales: positive only), keeping every secret factor
// bounded away from zero so comparisons stay numerically well conditioned.
const (
	randLo = 0.5
	randHi = 2.0
)

// Key is the DCE secret key SK = {M₁, M₂, M₃, π₁, π₂, r₁..r₄, kv₁..kv₄}.
// It lives with the data owner (and, for trapdoor generation, the user);
// the server never sees it.
//
// As held, SK is what the two sides apply: the database side keeps M₁, M₂,
// π₂, M₃ as its two row halves and kv₁..kv₄; the query side keeps π₁,
// r₁..r₄ and the folded query matrix Q (see the package doc). No inverse
// of M₁, M₂ or M₃ is kept, and no (2d+16)² matrix.
type Key struct {
	dim    int     // caller-facing dimension d
	padDim int     // d rounded up to the next even number
	half   int     // padDim/2
	scale  float64 // uniform input scaling (see KeyGenScaled)

	m1, m2         *matrix.Dense // (padDim/2+4)², used for database vectors
	pi1            *rng.Permutation
	pi2            *rng.Permutation
	r1, r2, r3, r4 float64

	mup, mdown         *matrix.Dense // halves of M₃: (padDim+8)×(2·padDim+16)
	kv1, kv2, kv3, kv4 []float64

	// query is Q = diag(kv₂◦kv₄)·M₃⁻¹·[Π₂B; −Π₂B] with B = blockdiag(M₁⁻¹,
	// M₂⁻¹): (2·padDim+16)×(padDim+8), the whole of TrapGen after step 3.
	query *matrix.Dense

	mu  sync.Mutex
	rnd *rng.Rand
	// single recycles the block-of-one Encryptors Encrypt runs on, so
	// one-off encryption allocates no temporaries per record either.
	single sync.Pool
}

// KeyGen generates a DCE key for d-dimensional vectors using randomness
// from r (pass rng.NewCrypto() outside tests). It mirrors the paper's
// KeyGen(1^ζ, d); the security parameter is realized by the entropy of r.
func KeyGen(r *rng.Rand, dim int) (*Key, error) {
	return KeyGenScaled(r, dim, 1)
}

// KeyGenScaled is KeyGen with an explicit uniform input scale. Every vector
// is multiplied by scale before encryption; distance comparisons are
// invariant under uniform scaling, so correctness is unaffected, but keeping
// coordinates at O(1) magnitude preserves float64 headroom through the two
// cancellation steps of DistanceComp. Data owners should pass
// scale = 1/max|p_i| for raw-range data (the core scheme does).
func KeyGenScaled(r *rng.Rand, dim int, scale float64) (*Key, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("dce: non-positive dimension %d", dim)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("dce: non-positive input scale %g", scale)
	}
	pad := dim
	if pad%2 == 1 {
		pad++
	}
	k := &Key{dim: dim, padDim: pad, half: pad / 2, scale: scale, rnd: rng.Derive(r, 0xd0e)}

	sub := pad/2 + 4
	var inv1, inv2 *matrix.Dense
	k.m1, inv1 = matrix.RandomInvertible(r, sub)
	k.m2, inv2 = matrix.RandomInvertible(r, sub)
	k.pi1 = rng.NewPermutation(r, pad)
	k.pi2 = rng.NewPermutation(r, pad+8)

	k.r1 = rng.UniformNonZero(r, randLo, randHi)
	k.r2 = rng.UniformNonZero(r, randLo, randHi)
	k.r3 = rng.UniformNonZero(r, randLo, randHi)
	k.r4 = rng.UniformNonZero(r, randLo, randHi)

	big := 2*pad + 16
	m3, m3LU := matrix.RandomFactored(r, big)
	k.mup = m3.SubMatrix(0, pad+8, 0, big)
	k.mdown = m3.SubMatrix(pad+8, big, 0, big)

	k.kv1 = make([]float64, big)
	k.kv2 = make([]float64, big)
	k.kv3 = make([]float64, big)
	k.kv4 = make([]float64, big)
	for i := 0; i < big; i++ {
		k.kv1[i] = rng.UniformNonZero(r, randLo, randHi)
		k.kv2[i] = rng.UniformNonZero(r, randLo, randHi)
		k.kv3[i] = rng.UniformNonZero(r, randLo, randHi)
		// kv₁◦kv₃ = kv₂◦kv₄ (the constraint Equation 12 relies on).
		k.kv4[i] = k.kv1[i] * k.kv3[i] / k.kv2[i]
	}
	k.query = foldQuery(m3LU, inv1, inv2, k.pi2, k.kv2, k.kv4)
	return k, nil
}

// foldQuery returns Q = diag(kv₂◦kv₄)·M₃⁻¹·[Π₂B; −Π₂B], B = blockdiag(M₁⁻¹,
// M₂⁻¹), solving M₃·X = [Π₂B; −Π₂B] from M₃'s factorization: padDim+8
// right-hand sides, where M₃⁻¹ would take 2·padDim+16.
func foldQuery(m3 *matrix.LU, inv1, inv2 *matrix.Dense, pi2 *rng.Permutation, kv2, kv4 []float64) *matrix.Dense {
	sub := inv1.Rows()
	bar := 2 * sub
	rhs := matrix.NewDense(2*bar, bar)
	// Π₂ moves row i of B to row fwd[i]; −Π₂B is the lower half.
	fwd := pi2.Forward()
	for i := 0; i < sub; i++ {
		copy(rhs.Row(fwd[i])[:sub], inv1.Row(i))
		copy(rhs.Row(fwd[sub+i])[sub:], inv2.Row(i))
	}
	for i := 0; i < bar; i++ {
		vec.Scale(rhs.Row(bar+i), -1, rhs.Row(i))
	}
	q := m3.SolveMat(rhs)
	for i := range kv2 {
		row := q.Row(i)
		vec.Scale(row, kv2[i]*kv4[i], row)
	}
	return q
}

// Dim returns the plaintext dimension d the key was generated for.
func (k *Key) Dim() int { return k.dim }

// Scale returns the uniform input scale applied before encryption.
func (k *Key) Scale() float64 { return k.scale }

// CiphertextDim returns the length of each of the four ciphertext component
// vectors (2d+16 after padding), so a record holds 4× this.
func (k *Key) CiphertextDim() int { return 2*k.padDim + 16 }

// Trapdoor is T_q = q̄′ ∈ R^(2d+16) (Equation 15).
type Trapdoor struct {
	Q []float64
}

// randScalars draws n per-encryption random scalars under the key's lock.
// signed selects ±[lo,hi) vs positive-only.
func (k *Key) randScalars(n int, signed bool) []float64 {
	out := make([]float64, n)
	k.mu.Lock()
	for i := range out {
		if signed {
			out[i] = rng.UniformNonZero(k.rnd, randLo, randHi)
		} else {
			out[i] = rng.Uniform(k.rnd, randLo, randHi)
		}
	}
	k.mu.Unlock()
	return out
}

// pairTransform computes the paper's step 1: p̌ from p (database side,
// sign=+1) or q̌ from q (query side, sign=−1), folding in the key's input
// scale and padding odd dimensions with a trailing zero.
func (k *Key) pairTransform(out, p []float64, sign float64) []float64 {
	if out == nil {
		out = make([]float64, k.padDim)
	}
	get := func(i int) float64 {
		if i < len(p) {
			return k.scale * p[i]
		}
		return 0
	}
	for i := 0; i < k.padDim; i += 2 {
		a, b := get(i), get(i+1)
		out[i] = sign * (a + b)
		out[i+1] = sign * (a - b)
	}
	return out
}

// encRand is the per-record randomness of Enc: α₁, α₂, r′₁, r′₂, r′₃
// (signed) and r_p (positive), in the order they are drawn.
type encRand [6]float64

func drawEncRand(r *rng.Rand) (rs encRand) {
	for i := range rs[:5] {
		rs[i] = rng.UniformNonZero(r, randLo, randHi)
	}
	rs[5] = rng.Uniform(r, randLo, randHi)
	return rs
}

// encBlock is how many records an Encryptor encrypts per sweep of the key
// matrices. At d=960 the two M₃ halves are 30 MB together, so a record
// encrypted alone streams all of it from the last-level cache; a block of
// 16 streams it once for the 16.
const encBlock = 16

// Encryptor encrypts records a block at a time with one reusable set of
// temporaries. Steps 1–3 of Enc (pair transform, π₁, split) run record by
// record into a panel of split halves; M₁, M₂, M_up and M_down each run
// once for the whole block as a matrix.VecMulBlock, which reads the matrix
// once rather than once per record, and each row of it once per four
// records; π₂ and step ii run record by record again. Every record comes
// out with the bits it would have alone: the block and its groups of four
// change how often the key is read, not the arithmetic. A
// bulk-encryption worker that keeps one Encryptor allocates no
// temporaries per record. It is not safe for concurrent use; the key it
// wraps is.
type Encryptor struct {
	k *Key
	// check (p̌) and hat (p̂) serve one record at a time.
	check, hat []float64
	// One row per record of a block: the split halves p1/p2, the M₁/M₂
	// products enc1/enc2 (the two halves of a row of enc), p̄ (bar) and the
	// two M₃ projections.
	p1, p2, enc1, enc2, enc, bar, up, down [][]float64
	// rs is each record's randomness, drawn before its block runs.
	rs [encBlock]encRand
}

// NewEncryptor returns an Encryptor for the key.
func (k *Key) NewEncryptor() *Encryptor { return k.newEncryptor(encBlock) }

// newEncryptor returns an Encryptor whose blocks hold rows records.
func (k *Key) newEncryptor(rows int) *Encryptor {
	sub, bar, big := k.half+4, k.padDim+8, k.CiphertextDim()
	buf := make([]float64, 2*k.padDim+rows*(3*bar+2*big))
	cut := func(n int) []float64 {
		out := buf[:n:n]
		buf = buf[n:]
		return out
	}
	hdr := make([][]float64, 8*rows)
	panel := func(n int) [][]float64 {
		out := hdr[:rows:rows]
		hdr = hdr[rows:]
		for b := range out {
			out[b] = cut(n)
		}
		return out
	}
	e := &Encryptor{
		k: k, check: cut(k.padDim), hat: cut(k.padDim),
		p1: panel(sub), p2: panel(sub), enc: panel(bar), bar: panel(bar),
		up: panel(big), down: panel(big),
	}
	e.enc1, e.enc2 = hdr[:rows:rows], hdr[rows:]
	for b, row := range e.enc {
		e.enc1[b], e.enc2[b] = row[:sub:sub], row[sub:]
	}
	return e
}

// split runs vector-randomization steps 1–3 for database vector p, leaving
// the halves p₁, p₂ ∈ R^(padDim/2+4) in row b of the block.
func (e *Encryptor) split(b int, p []float64) {
	k := e.k
	k.pairTransform(e.check, p, +1) // step 1: p̌
	k.pi1.Apply(e.hat, e.check)     // step 2: p̂ = π₁(p̌)
	rs := &e.rs[b]
	alpha1, alpha2 := rs[0], rs[1]
	rp1, rp2, rp3 := rs[2], rs[3], rs[4]
	normSq := k.scale * k.scale * vec.SqNorm(p)
	gamma := (normSq - rp1*k.r1 - rp2*k.r2 - rp3*k.r3) / k.r4

	// Step 3: split with cancelling randomness (Equation 2).
	p1, p2 := e.p1[b], e.p2[b]
	copy(p1, e.hat[:k.half])
	p1[k.half] = alpha1
	p1[k.half+1] = -alpha1
	p1[k.half+2] = rp1
	p1[k.half+3] = rp2
	copy(p2, e.hat[k.half:])
	p2[k.half] = alpha2
	p2[k.half+1] = alpha2
	p2[k.half+2] = rp3
	p2[k.half+3] = gamma
}

// randomizeQuery runs vector-randomization steps 1–3 for a query vector,
// returning x = [q₁; q₂] ∈ R^(padDim+8). Step 4 — q̄ = Π₂·[M₁⁻¹q₁; M₂⁻¹q₂]
// — is folded into the key's query matrix with the rest of Equation 15.
func (k *Key) randomizeQuery(q []float64) []float64 {
	check := k.pairTransform(nil, q, -1) // step 1: q̌ (note the global minus)
	hat := k.pi1.Apply(nil, check)       // step 2
	rs := k.randScalars(2, true)         // β₁, β₂
	beta1, beta2 := rs[0], rs[1]

	// Step 3 (Equation 3): the query side carries the shared key scalars
	// r₁..r₄ that pair with the database side's r′ and γ entries.
	sub := k.half + 4
	x := make([]float64, 2*sub)
	q1, q2 := x[:sub], x[sub:]
	copy(q1, hat[:k.half])
	q1[k.half] = beta1
	q1[k.half+1] = beta1
	q1[k.half+2] = k.r1
	q1[k.half+3] = k.r2
	copy(q2, hat[k.half:])
	q2[k.half] = beta2
	q2[k.half+1] = -beta2
	q2[k.half+2] = k.r3
	q2[k.half+3] = k.r4
	return x
}

// Encrypt is the paper's Enc(p, SK): it encrypts one database vector into
// a fresh flat record C_DCE(p) = [p̄′₁|p̄′₂|p̄′₃|p̄′₄] of length
// 4·CiphertextDim (Equation 13), as a block of one. The record's randomness
// comes from the key's own sequential stream; bulk encryption, which must
// not depend on the order workers reach that stream, uses an Encryptor
// with one stream per record instead.
func (k *Key) Encrypt(p []float64) []float64 {
	rec := make([]float64, 4*k.CiphertextDim())
	e, ok := k.single.Get().(*Encryptor)
	if !ok {
		e = k.newEncryptor(1)
	}
	k.mu.Lock()
	e.rs[0] = drawEncRand(k.rnd)
	k.mu.Unlock()
	e.encrypt([][]float64{p}, [][]float64{rec})
	k.single.Put(e)
	return rec
}

// EncryptRecords encrypts ps[i] into the flat record recs[i] [P1|P2|P3|P4]
// of length 4·CiphertextDim — typically a CiphertextStore record, so bulk
// encryption fills the arena in place — drawing record i's randomness from
// rs[i]. The records run in blocks of 16; what each gets is fixed by its
// stream and vector alone, whatever block it shares.
func (e *Encryptor) EncryptRecords(rs []*rng.Rand, ps, recs [][]float64) {
	if len(rs) != len(ps) || len(recs) != len(ps) {
		panic(fmt.Sprintf("dce: %d streams and %d records for %d vectors", len(rs), len(recs), len(ps)))
	}
	for lo := 0; lo < len(ps); lo += len(e.p1) {
		hi := min(lo+len(e.p1), len(ps))
		for i := lo; i < hi; i++ {
			e.rs[i-lo] = drawEncRand(rs[i])
		}
		e.encrypt(ps[lo:hi], recs[lo:hi])
	}
}

// encrypt runs Enc for one block of records, whose randomness is already in
// e.rs.
func (e *Encryptor) encrypt(ps, recs [][]float64) {
	k := e.k
	big := k.CiphertextDim()
	for b, p := range ps {
		if len(p) != k.dim {
			panic(fmt.Sprintf("dce: encrypting %d-dim vector with %d-dim key", len(p), k.dim))
		}
		if len(recs[b]) != 4*big {
			panic(fmt.Sprintf("dce: record length %d, want %d", len(recs[b]), 4*big))
		}
		e.split(b, p)
	}
	n := len(ps)

	// Step 4 (Equation 4): matrix encryption, then the second permutation.
	k.m1.VecMulBlock(e.enc1[:n], e.p1[:n])
	k.m2.VecMulBlock(e.enc2[:n], e.p2[:n])
	for b, bar := range e.bar[:n] {
		k.pi2.Apply(bar, e.enc[b])
	}

	// Matrix encryption step i (Equation 10): project p̄ onto both halves
	// of M₃.
	k.mup.VecMulBlock(e.up[:n], e.bar[:n])     // p̄ᵀ·M_up
	k.mdown.VecMulBlock(e.down[:n], e.bar[:n]) // p̄ᵀ·M_down

	// Randomness step ii (Equation 13): shift by ±1, divide by the key
	// vectors, scale by r_p ∈ R⁺.
	for b, rec := range recs {
		up, down, rp := e.up[b], e.down[b], e.rs[b][5]
		p1, p2, p3, p4 := rec[:big], rec[big:2*big], rec[2*big:3*big], rec[3*big:]
		for i := 0; i < big; i++ {
			p1[i] = rp * (up[i] + 1) / k.kv1[i]
			p2[i] = rp * (up[i] - 1) / k.kv2[i]
			p3[i] = rp * (down[i] + 1) / k.kv3[i]
			p4[i] = rp * (down[i] - 1) / k.kv4[i]
		}
	}
}

// TrapGen is the paper's TrapGen(q, SK): it produces the trapdoor for a
// query vector.
func (k *Key) TrapGen(q []float64) *Trapdoor {
	if len(q) != k.dim {
		panic(fmt.Sprintf("dce: trapdoor for %d-dim vector with %d-dim key", len(q), k.dim))
	}
	x := k.randomizeQuery(q)
	rq := k.randScalars(1, false)[0]

	// Equation 15: q̄′ = r_q · (M₃⁻¹ [q̄; −q̄]) ◦ (kv₂◦kv₄), q̄ = Π₂·B·x with
	// B = blockdiag(M₁⁻¹, M₂⁻¹). Everything between x and r_q is fixed by
	// the key, so it re-associates to r_q · Q·x with
	// Q = diag(kv₂◦kv₄)·M₃⁻¹·[Π₂B; −Π₂B], folded at KeyGen.
	out := k.query.MulVec(nil, x)
	vec.Scale(out, rq, out)
	return &Trapdoor{Q: out}
}

// DistanceComp evaluates Z_{o,p,q} = (ō′₁◦p̄′₃ − ō′₂◦p̄′₄)ᵀ·q̄′
// = 2·r_o·r_p·r_q·(dist(o,q) − dist(p,q)) from the records o and p. Its
// sign answers the comparison: negative means dist(o,q) < dist(p,q).
func DistanceComp(o, p []float64, tq *Trapdoor) float64 {
	return DistanceCompHalves(o[:len(o)/2], p[len(p)/2:], tq.Q)
}
