package eval

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ppanns/internal/core"
	"ppanns/internal/dataset"
	"ppanns/internal/kerneltest"
	"ppanns/internal/matrix"
	"ppanns/internal/par"
	"ppanns/internal/resultheap"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// Asymmetric matrix encryption, the secure but costly distance-comparison
// baseline the paper revisits in Section III-C (Zheng et al., TDSC 2024),
// and HNSW-AME, Figure 6's comparison point built on it.
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

// ameShares is the number of additive shares (16 query matrices, 2×16
// database vectors), matching the scheme the paper describes.
const ameShares = 16

// ameKey is the AME secret key: 32 invertible matrices plus their
// query-side counterparts.
type ameKey struct {
	dim   int
	ext   int     // 2d+6
	scale float64 // uniform input scaling, same rationale as dce.KeyGen's scale

	a     [ameShares]*matrix.Dense // left-share encryption matrices
	b     [ameShares]*matrix.Dense // right-share encryption matrices
	aInvT [ameShares]*matrix.Dense // A_i⁻ᵀ (query side)
	bInv  [ameShares]*matrix.Dense // B_i⁻¹ (query side)

	mu  sync.Mutex
	rnd *rng.Rand
}

// ameCiphertext is C_AME(u): 16 left-role and 16 right-role share vectors,
// 32 vectors of dimension 2d+6 in total.
type ameCiphertext struct {
	L [ameShares][]float64
	R [ameShares][]float64
}

// ameTrapdoor is T_q: 16 matrices in R^(2d+6)×(2d+6).
type ameTrapdoor struct {
	T [ameShares]*matrix.Dense
}

// ameKeyGen generates an AME key for d-dimensional vectors with a uniform
// input scale (see dce.KeyGen for why O(1)-magnitude inputs matter for
// float64 comparison headroom).
func ameKeyGen(r *rng.Rand, dim int, scale float64) (*ameKey, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("ame: non-positive dimension %d", dim)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("ame: non-positive input scale %g", scale)
	}
	k := &ameKey{dim: dim, ext: 2*dim + 6, scale: scale, rnd: rng.Derive(r, 0xa3e)}
	for i := 0; i < ameShares; i++ {
		ai, aInv := matrix.RandomInvertible(r, k.ext)
		k.a[i] = ai
		k.aInvT[i] = transpose(aInv)
		k.b[i], k.bInv[i] = matrix.RandomInvertible(r, k.ext)
	}
	return k, nil
}

// extend builds x_u = r_u·[‖u‖², uᵀ, 1, junk...] with fresh junk randomness
// drawn from r.
func (k *ameKey) extend(r *rng.Rand, u []float64) []float64 {
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

// encrypt encrypts one database vector into its 32 share vectors, drawing
// its randomness from the key's own sequential stream.
func (k *ameKey) encrypt(u []float64) *ameCiphertext {
	k.checkDim(u)
	k.mu.Lock()
	xo, xp := k.extend(k.rnd, u), k.extend(k.rnd, u)
	k.mu.Unlock()
	return k.share(xo, xp)
}

// encryptWith is encrypt drawing from r instead of the key's stream and
// taking no lock: bulk encryption gives every record its own stream so the
// ciphertexts do not depend on worker scheduling.
func (k *ameKey) encryptWith(r *rng.Rand, u []float64) *ameCiphertext {
	k.checkDim(u)
	return k.share(k.extend(r, u), k.extend(r, u))
}

func (k *ameKey) checkDim(u []float64) {
	if len(u) != k.dim {
		panic(fmt.Sprintf("ame: encrypting %d-dim vector with %d-dim key", len(u), k.dim))
	}
}

// share multiplies the two extended vectors into the 16 left-role and 16
// right-role shares. The randomizers are independent per role: a vector
// compared as o and as p must not share extension randomness.
func (k *ameKey) share(xo, xp []float64) *ameCiphertext {
	ct := &ameCiphertext{}
	for i := 0; i < ameShares; i++ {
		ct.L[i] = k.a[i].MulVec(nil, xo)
		ct.R[i] = k.b[i].MulVec(nil, xp)
	}
	return ct
}

// comparisonForm builds the sparse bilinear form Q with
// x_oᵀ·Q·x_p = r_o·r_p·(dist(o,q) − dist(p,q)) for extended vectors.
func (k *ameKey) comparisonForm(q []float64) *matrix.Dense {
	Q := matrix.NewDense(k.ext, k.ext)
	c := k.dim + 1   // index of the constant-1 slot
	Q.Row(0)[c] = 1  // + ‖o‖²
	Q.Row(c)[0] = -1 // − ‖p‖²
	for i, v := range q {
		sv := float64(k.scale * v)
		Q.Row(1 + i)[c] = -2 * sv // − 2oᵀq
		Q.Row(c)[1+i] = 2 * sv    // + 2pᵀq
	}
	return Q
}

// trapGen encrypts a query into its 16 trapdoor matrices
// T_i = r_q·A_i⁻ᵀ·Q_i·B_i⁻¹ where Q = Σ Q_i is a fresh additive sharing.
// This is the scheme's heavy user-side operation: Θ(d³) per query.
func (k *ameKey) trapGen(q []float64) *ameTrapdoor {
	if len(q) != k.dim {
		panic(fmt.Sprintf("ame: query of dim %d with %d-dim key", len(q), k.dim))
	}
	// Additive sharing: 15 random matrices plus the remainder of Q.
	shares := make([]*matrix.Dense, ameShares)
	rest := k.comparisonForm(q)
	k.mu.Lock()
	rq := rng.Uniform(k.rnd, 0.5, 2)
	for i := 0; i < ameShares-1; i++ {
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
	shares[ameShares-1] = rest

	td := &ameTrapdoor{}
	for i := 0; i < ameShares; i++ {
		t := mul(k.aInvT[i], mul(shares[i], k.bInv[i]))
		for j := range t.Raw() {
			t.Raw()[j] *= rq
		}
		td.T[i] = t
	}
	return td
}

// ameCompare evaluates Σᵢ L_i(o)ᵀ·T_i·R_i(p) = r·(dist(o,q) − dist(p,q))
// with r > 0; its sign answers whether o or p is closer to q. The work is
// 16 vector-matrix products plus 16 inner products — the 64d²+O(d) MACs the
// paper cites.
func ameCompare(co, cp *ameCiphertext, td *ameTrapdoor) float64 {
	var z float64
	var buf []float64
	for i := 0; i < ameShares; i++ {
		buf = vecMul(buf, td.T[i], co.L[i])
		z += vec.Dot(buf, cp.R[i])
	}
	return z
}

// hnswAME is Figure 6's HNSW-AME comparison point: the paper's filter phase
// refined by asymmetric matrix encryption instead of DCE — exact like DCE,
// but Θ(d²) per comparison. It holds its own AME key and one ciphertext per
// record, and borrows the deployment's server for the filter, so both
// refine schemes rank the same candidates.
type hnswAME struct {
	server *core.Server
	key    *ameKey
	cts    []*ameCiphertext
}

// newHNSWAME encrypts data — the plaintexts of the records server hosts,
// in id order — under an AME key drawn from seed, with input scale
// 1/max|x| as the data owner scales DCE. Record i is encrypted on its own
// stream, so the seed fixes every ciphertext on any core count.
func newHNSWAME(server *core.Server, data [][]float64, seed uint64) (*hnswAME, error) {
	if server == nil || len(data) == 0 {
		return nil, fmt.Errorf("hnsw-ame: needs a server and its data")
	}
	for i, v := range data {
		if len(v) != server.Dim() {
			return nil, fmt.Errorf("hnsw-ame: vector %d has dim %d, server %d", i, len(v), server.Dim())
		}
	}
	r := rng.NewSeeded(seed)
	scale := 1.0
	if m := vec.MaxAbs(data); m > 0 {
		scale = 1 / m
	}
	key, err := ameKeyGen(r, server.Dim(), scale)
	if err != nil {
		return nil, fmt.Errorf("hnsw-ame: %w", err)
	}
	streams := rng.NewStreams(r)
	cts := make([]*ameCiphertext, len(data))
	par.Spans(runtime.GOMAXPROCS(0), len(data), 16, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			cts[i] = key.encryptWith(streams.At(i), data[i])
		}
	})
	return &hnswAME{server: server, key: key, cts: cts}, nil
}

// trapdoor encrypts a query into its AME trapdoor, the user's Θ(d³) share
// of the baseline.
func (h *hnswAME) trapdoor(q []float64) (*ameTrapdoor, error) {
	if len(q) != h.key.dim {
		return nil, fmt.Errorf("hnsw-ame: query has dim %d, want %d", len(q), h.key.dim)
	}
	return h.key.trapGen(q), nil
}

// search answers one query. The server's filter phase picks the k′
// candidates the DCE refine would see for tok, delta tier included; then
// Algorithm 2's bounded max-heap keeps the best k of them by AME
// comparisons under td. It returns the ids closest first and the number of
// comparisons made.
func (h *hnswAME) search(tok *core.QueryToken, td *ameTrapdoor, k, kPrime, ef int) ([]int, int, error) {
	if td == nil {
		return nil, 0, fmt.Errorf("hnsw-ame: nil AME trapdoor")
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("hnsw-ame: non-positive k %d", k)
	}
	kPrime = max(kPrime, k)
	cands, err := h.server.Search(tok, kPrime, core.SearchOptions{KPrime: kPrime, EfSearch: ef, Refine: core.RefineNone})
	if err != nil || len(cands) == 0 {
		return nil, 0, err
	}
	for _, id := range cands {
		if id >= len(h.cts) {
			return nil, 0, fmt.Errorf("hnsw-ame: candidate %d has no AME ciphertext", id)
		}
	}
	var heap resultheap.CompareHeap
	heap.Reset(min(k, len(cands)), fartherFunc(func(a, b int) bool {
		return ameCompare(h.cts[cands[a]], h.cts[cands[b]], td) > 0
	}))
	for i := range cands {
		heap.Offer(i)
	}
	ids := heap.SortedInto(nil)
	for i, pos := range ids {
		ids[i] = cands[pos]
	}
	return ids, heap.Comparisons(), nil
}

// fartherFunc adapts a plain function to resultheap.Comparator.
type fartherFunc func(a, b int) bool

func (f fartherFunc) Farther(a, b int) bool { return f(a, b) }

const ameRelGap = 1e-9

func checkAMEComparison(t *testing.T, k *ameKey, o, p, q []float64) {
	t.Helper()
	do := vec.SqDist(o, q)
	dp := vec.SqDist(p, q)
	if math.Abs(do-dp) <= ameRelGap*(do+dp+1) {
		return
	}
	z := ameCompare(k.encrypt(o), k.encrypt(p), k.trapGen(q))
	if (z < 0) != (do < dp) {
		t.Fatalf("Compare sign wrong: z=%g, dist(o,q)=%g, dist(p,q)=%g", z, do, dp)
	}
}

func TestAMEKeyGenValidation(t *testing.T) {
	r := rng.NewSeeded(1)
	if _, err := ameKeyGen(r, 0, 1); err == nil {
		t.Fatal("expected error for dim 0")
	}
	if _, err := ameKeyGen(r, 4, 0); err == nil {
		t.Fatal("expected error for scale 0")
	}
}

func TestAMEShapes(t *testing.T) {
	r := rng.NewSeeded(2)
	dim := 10
	k, err := ameKeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k.ext != 2*dim+6 {
		t.Fatalf("ext = %d, want %d", k.ext, 2*dim+6)
	}
	p := rng.Gaussian(r, nil, dim)
	ct := k.encrypt(p)
	for i := 0; i < ameShares; i++ {
		if len(ct.L[i]) != k.ext || len(ct.R[i]) != k.ext {
			t.Fatalf("share %d has wrong length", i)
		}
	}
	td := k.trapGen(p)
	for i := 0; i < ameShares; i++ {
		if td.T[i].Rows() != k.ext || len(td.T[i].Row(0)) != k.ext {
			t.Fatalf("trapdoor share %d has wrong shape", i)
		}
	}
}

func TestAMEComparisonCorrectness(t *testing.T) {
	r := rng.NewSeeded(3)
	for _, dim := range []int{2, 5, 16} {
		k, err := ameKeyGen(r, dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 15; trial++ {
			o := rng.Gaussian(r, nil, dim)
			p := rng.Gaussian(r, nil, dim)
			q := rng.Gaussian(r, nil, dim)
			checkAMEComparison(t, k, o, p, q)
		}
	}
}

func TestAMEComparisonWithScale(t *testing.T) {
	r := rng.NewSeeded(4)
	dim := 8
	k, err := ameKeyGen(r, dim, 1.0/255)
	if err != nil {
		t.Fatal(err)
	}
	randRaw := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = float64(r.IntN(256))
		}
		return v
	}
	for trial := 0; trial < 20; trial++ {
		checkAMEComparison(t, k, randRaw(), randRaw(), randRaw())
	}
}

func TestAMERankingAgainstPlaintext(t *testing.T) {
	r := rng.NewSeeded(5)
	dim := 12
	k, err := ameKeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := rng.Gaussian(r, nil, dim)
	td := k.trapGen(q)
	const n = 12
	pts := make([][]float64, n)
	cts := make([]*ameCiphertext, n)
	for i := range pts {
		pts[i] = rng.Gaussian(r, nil, dim)
		cts[i] = k.encrypt(pts[i])
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			di, dj := vec.SqDist(pts[i], q), vec.SqDist(pts[j], q)
			if math.Abs(di-dj) <= ameRelGap*(di+dj+1) {
				continue
			}
			if (ameCompare(cts[i], cts[j], td) < 0) != (di < dj) {
				t.Fatalf("pairwise comparison (%d,%d) wrong", i, j)
			}
		}
	}
}

func TestAMEEncryptionRandomized(t *testing.T) {
	r := rng.NewSeeded(6)
	dim := 6
	k, err := ameKeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := rng.Gaussian(r, nil, dim)
	a, b := k.encrypt(p), k.encrypt(p)
	if kerneltest.ApproxEqual(a.L[0], b.L[0], 1e-12) {
		t.Fatal("two encryptions produced identical left shares")
	}
	td1, td2 := k.trapGen(p), k.trapGen(p)
	if kerneltest.ApproxEqual(td1.T[0].Raw(), td2.T[0].Raw(), 1e-12) {
		t.Fatal("two trapdoors produced identical share matrices")
	}
}

func TestAMELeftRightRolesIndependent(t *testing.T) {
	// A vector compared against itself: Z should be ~0 relative to the
	// magnitude of genuine gaps, and must not blow up.
	r := rng.NewSeeded(7)
	dim := 8
	k, err := ameKeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := rng.Gaussian(r, nil, dim)
	q := rng.Gaussian(r, nil, dim)
	ct := k.encrypt(p)
	z := ameCompare(ct, ct, k.trapGen(q))
	// dist(p,q) − dist(p,q) = 0 ⇒ z ≈ 0 up to rounding noise.
	if math.Abs(z) > 1e-6 {
		t.Fatalf("self-comparison = %g, want ≈0", z)
	}
}

func TestAMEDimMismatchPanics(t *testing.T) {
	r := rng.NewSeeded(8)
	k, err := ameKeyGen(r, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"encrypt": func() { k.encrypt(make([]float64, 5)) },
		"trapGen": func() { k.trapGen(make([]float64, 7)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAMEConcurrentEncrypt(t *testing.T) {
	r := rng.NewSeeded(9)
	dim := 6
	k, err := ameKeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := rng.Gaussian(r, nil, dim)
	td := k.trapGen(q)
	done := make(chan bool, 4)
	for w := 0; w < 4; w++ {
		go func(seed uint64) {
			rr := rng.NewSeeded(seed)
			ok := true
			for i := 0; i < 10; i++ {
				o := rng.Gaussian(rr, nil, dim)
				p := rng.Gaussian(rr, nil, dim)
				do, dp := vec.SqDist(o, q), vec.SqDist(p, q)
				if math.Abs(do-dp) <= ameRelGap*(do+dp+1) {
					continue
				}
				if (ameCompare(k.encrypt(o), k.encrypt(p), td) < 0) != (do < dp) {
					ok = false
				}
			}
			done <- ok
		}(uint64(w) + 50)
	}
	for w := 0; w < 4; w++ {
		if !<-done {
			t.Fatal("concurrent encryption produced a wrong comparison")
		}
	}
}

// TestAMEEncryptWithStream: ciphertexts drawn from a caller's stream are
// fixed by (key, stream state, vector) and compare like encrypt's.
func TestAMEEncryptWithStream(t *testing.T) {
	r := rng.NewSeeded(13)
	const dim = 5
	k, err := ameKeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	streams := rng.NewStreams(r)
	o, p, q := rng.Gaussian(r, nil, dim), rng.Gaussian(r, nil, dim), rng.Gaussian(r, nil, dim)
	co, again := k.encryptWith(streams.At(0), o), k.encryptWith(streams.At(0), o)
	for i := range co.L {
		if !kerneltest.ApproxEqual(co.L[i], again.L[i], 0) || !kerneltest.ApproxEqual(co.R[i], again.R[i], 0) {
			t.Fatalf("share %d: same stream, different ciphertexts", i)
		}
	}
	z := ameCompare(co, k.encryptWith(streams.At(1), p), k.trapGen(q))
	if do, dp := vec.SqDist(o, q), vec.SqDist(p, q); (z < 0) != (do < dp) {
		t.Fatalf("Compare sign wrong: z=%g, dist(o,q)=%g, dist(p,q)=%g", z, do, dp)
	}
}

// ameWorld is a small seeded deployment plus the plaintexts it encrypts:
// n points around a few Gaussian centres, and queries perturbed from them.
type ameWorld struct {
	data, queries [][]float64
	user          *core.User
	server        *core.Server
}

func newAMEWorld(t *testing.T, seed uint64, n, dim, nq int) *ameWorld {
	t.Helper()
	r := rng.NewSeeded(seed)
	centres := make([][]float64, 6)
	for i := range centres {
		centres[i] = rng.GaussianVec(r, dim, 5)
	}
	data := make([][]float64, n)
	for i := range data {
		data[i] = vec.Add(nil, centres[r.IntN(len(centres))], rng.GaussianVec(r, dim, 1))
	}
	queries := make([][]float64, nq)
	for i := range queries {
		queries[i] = vec.Add(nil, data[r.IntN(n)], rng.GaussianVec(r, dim, 0.3))
	}
	owner, err := core.NewDataOwner(core.Params{Dim: dim, Beta: 1.0, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	edb, err := owner.EncryptDatabase(data)
	if err != nil {
		t.Fatal(err)
	}
	server, err := core.NewServer(edb)
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser(owner.UserKey())
	if err != nil {
		t.Fatal(err)
	}
	return &ameWorld{data: data, queries: queries, user: user, server: server}
}

// TestHNSWAMEMatchesDCERefine: the same filter phase under two exact
// comparators gives the same ids in the same order — with pending
// tombstones, too, which the shared filter masks for both.
func TestHNSWAMEMatchesDCERefine(t *testing.T) {
	const k, kPrime = 6, 48
	w := newAMEWorld(t, 13, 600, 10, 10)
	h, err := newHNSWAME(w.server, w.data, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{4, 77, 301} {
		if err := w.server.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for qi, q := range w.queries {
		tok, err := w.user.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.server.Search(tok, k, core.SearchOptions{KPrime: kPrime, Refine: core.RefineDCE})
		if err != nil {
			t.Fatal(err)
		}
		td, err := h.trapdoor(q)
		if err != nil {
			t.Fatal(err)
		}
		got, comps, err := h.search(tok, td, k, kPrime, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: AME %v, DCE %v", qi, got, want)
		}
		if comps < kPrime-1 {
			t.Fatalf("query %d: %d comparisons for %d candidates", qi, comps, kPrime)
		}
	}

	tok, err := w.user.Query(w.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	td, err := h.trapdoor(w.queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.search(tok, nil, k, kPrime, 0); err == nil {
		t.Fatal("expected error for a nil trapdoor")
	}
	if _, _, err := h.search(tok, td, 0, kPrime, 0); err == nil {
		t.Fatal("expected error for k = 0")
	}
	if _, err := h.trapdoor(make([]float64, 3)); err == nil {
		t.Fatal("expected error for a wrong-dimension query")
	}
	if _, err := newHNSWAME(w.server, [][]float64{make([]float64, 3)}, 1); err == nil {
		t.Fatal("expected error for wrong-dimension data")
	}
}

// TestHNSWAMESeedFixesCiphertexts: one seed gives the same AME ciphertexts
// whether they were encrypted on one core or four.
func TestHNSWAMESeedFixesCiphertexts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	w := newAMEWorld(t, 95, 200, 6, 0)
	var want []float64
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		h, err := newHNSWAME(w.server, w.data, 95)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, ct := range h.cts {
			for i := range ct.L {
				got = append(append(got, ct.L[i]...), ct.R[i]...)
			}
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("AME ciphertexts differ between GOMAXPROCS 1 and %d", procs)
		}
	}
}

// BenchmarkFig6RefineScheme measures one query under Figure 6's three
// refine schemes over a shared index: filter-only, DCE, and the HNSW-AME
// baseline.
func BenchmarkFig6RefineScheme(b *testing.B) {
	const k = 10
	d := dataset.DeepLike(800, 30, 7)
	dep := deploy(b, d, 0.3, 7)
	for _, mode := range []core.RefineMode{core.RefineNone, core.RefineDCE} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dep.server.Search(dep.tokens[i%len(dep.tokens)], k, core.SearchOptions{KPrime: 16 * k, EfSearch: 160, Refine: mode}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	h, err := newHNSWAME(dep.server, d.Train, 7)
	if err != nil {
		b.Fatal(err)
	}
	// Each trapdoor is 16 (2d+6)² matrices: a few, built before the timer.
	tds := make([]*ameTrapdoor, 4)
	for i := range tds {
		if tds[i], err = h.trapdoor(d.Queries[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("ame", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(tds)
			if _, _, err := h.search(dep.tokens[j], tds[j], k, 16*k, 160); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig8Encryption measures Figure 8's per-vector AME encryption at
// d=128; the root package's BenchmarkFig8Encryption measures DCPE and DCE.
func BenchmarkFig8Encryption(b *testing.B) {
	const dim = 128
	r := rng.NewSeeded(17)
	v := rng.Gaussian(r, nil, dim)
	key, err := ameKeyGen(rng.Derive(r, 3), dim, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("AME", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			key.encrypt(v)
		}
	})
}

// BenchmarkAMECompare is the O(d²) side of Section IV-B's comparison cost;
// the root BenchmarkDCEDistanceComp is the O(d) side.
func BenchmarkAMECompare(b *testing.B) {
	for _, dim := range []int{96, 128} {
		b.Run(fmt.Sprintf("d=%d", dim), func(b *testing.B) {
			r := rng.NewSeeded(29)
			key, err := ameKeyGen(r, dim, 1)
			if err != nil {
				b.Fatal(err)
			}
			co := key.encrypt(rng.Gaussian(r, nil, dim))
			cp := key.encrypt(rng.Gaussian(r, nil, dim))
			td := key.trapGen(rng.Gaussian(r, nil, dim))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ameCompare(co, cp, td)
			}
		})
	}
}
