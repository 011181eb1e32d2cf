package dce

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"ppanns/internal/kerneltest"
	"ppanns/internal/matrix"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// relGap is the minimum relative distance gap below which a pair of
// candidates counts as tied; genuinely tied distances may compare either
// way under float64 rounding and are excluded from exactness assertions.
const relGap = 1e-9

// checkComparison verifies Theorem 3 for one (o, p, q) triple.
func checkComparison(t *testing.T, k *Key, o, p, q []float64) {
	t.Helper()
	do := vec.SqDist(o, q)
	dp := vec.SqDist(p, q)
	if math.Abs(do-dp) <= relGap*(do+dp+1) {
		return // tie: either answer is acceptable
	}
	co := k.Encrypt(o)
	cp := k.Encrypt(p)
	tq := k.TrapGen(q)
	z := DistanceComp(co, cp, tq)
	if (z < 0) != (do < dp) {
		t.Fatalf("DistanceComp sign wrong: z=%g, dist(o,q)=%g, dist(p,q)=%g", z, do, dp)
	}
}

// closer reports whether o beats p for the trapdoor's query: the sign of
// DistanceComp.
func closer(co, cp []float64, tq *Trapdoor) bool { return DistanceComp(co, cp, tq) < 0 }

func TestKeyGenValidation(t *testing.T) {
	r := rng.NewSeeded(1)
	if _, err := KeyGen(r, 0, 1); err == nil {
		t.Fatal("expected error for dim 0")
	}
	if _, err := KeyGen(r, 4, 0); err == nil {
		t.Fatal("expected error for scale 0")
	}
	if _, err := KeyGen(r, 4, -1); err == nil {
		t.Fatal("expected error for negative scale")
	}
	// ReadKey refuses a NaN or infinite scale, so KeyGen must not
	// make one.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := KeyGen(r, 4, v); err == nil {
			t.Fatalf("expected error for scale %g", v)
		}
	}
}

func TestCiphertextShapes(t *testing.T) {
	r := rng.NewSeeded(2)
	for _, dim := range []int{1, 2, 3, 8, 17, 64} {
		k, err := KeyGen(r, dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		pad := dim
		if pad%2 == 1 {
			pad++
		}
		want := 2*pad + 16
		if k.CiphertextDim() != want {
			t.Fatalf("dim %d: CiphertextDim = %d, want %d", dim, k.CiphertextDim(), want)
		}
		p := rng.Gaussian(r, nil, dim)
		if ct := k.Encrypt(p); len(ct) != 4*want {
			t.Fatalf("dim %d: record length %d, want 4×%d", dim, len(ct), want)
		}
		tq := k.TrapGen(p)
		if len(tq.Q) != want {
			t.Fatalf("dim %d: trapdoor length %d, want %d", dim, len(tq.Q), want)
		}
	}
}

func TestComparisonCorrectnessGaussian(t *testing.T) {
	r := rng.NewSeeded(3)
	for _, dim := range []int{2, 7, 16, 32, 128} {
		k, err := KeyGen(r, dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			o := rng.Gaussian(r, nil, dim)
			p := rng.Gaussian(r, nil, dim)
			q := rng.Gaussian(r, nil, dim)
			checkComparison(t, k, o, p, q)
		}
	}
}

func TestComparisonCorrectnessSIFTRange(t *testing.T) {
	// Raw SIFT-like coordinates in [0, 255]: the case that motivates the
	// input scale. The owner sets scale = 1/255.
	r := rng.NewSeeded(4)
	dim := 128
	k, err := KeyGen(r, dim, 1.0/255)
	if err != nil {
		t.Fatal(err)
	}
	randSIFT := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = float64(r.IntN(256))
		}
		return v
	}
	for trial := 0; trial < 60; trial++ {
		checkComparison(t, k, randSIFT(), randSIFT(), randSIFT())
	}
}

func TestComparisonNearTies(t *testing.T) {
	// Candidates engineered to have close (but distinguishable) distances.
	r := rng.NewSeeded(5)
	dim := 24
	k, err := KeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := rng.Gaussian(r, nil, dim)
	for trial := 0; trial < 60; trial++ {
		o := vec.Add(nil, q, rng.GaussianVec(r, dim, 0.5))
		// p = o shifted slightly so dist(p,q) differs from dist(o,q) by a
		// small but resolvable margin.
		p := slices.Clone(o)
		p[trial%dim] += 1e-3
		checkComparison(t, k, o, p, q)
		checkComparison(t, k, p, o, q)
	}
}

func TestComparisonQuick(t *testing.T) {
	r := rng.NewSeeded(6)
	k, err := KeyGen(r, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		rr := rng.NewSeeded(seed)
		o := rng.Gaussian(rr, nil, 12)
		p := rng.Gaussian(rr, nil, 12)
		q := rng.Gaussian(rr, nil, 12)
		do, dp := vec.SqDist(o, q), vec.SqDist(p, q)
		if math.Abs(do-dp) <= relGap*(do+dp+1) {
			return true
		}
		z := DistanceComp(k.Encrypt(o), k.Encrypt(p), k.TrapGen(q))
		return (z < 0) == (do < dp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroAndEqualVectors(t *testing.T) {
	r := rng.NewSeeded(7)
	dim := 10
	k, err := KeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]float64, dim)
	q := rng.Gaussian(r, nil, dim)
	far := vec.Scale(nil, 10, q)
	// dist(q, q) = 0 < dist(far, q).
	checkComparison(t, k, q, far, q)
	checkComparison(t, k, zero, far, vec.Scale(nil, 0.01, q))
	// o == p must not crash; sign is unspecified for exact ties.
	co := k.Encrypt(q)
	cp := k.Encrypt(q)
	_ = DistanceComp(co, cp, k.TrapGen(q))
}

func TestTransitivityOnRanking(t *testing.T) {
	// Sorting candidates purely with DCE comparisons must reproduce the
	// plaintext distance ranking — the property the refine phase rests on.
	r := rng.NewSeeded(8)
	dim := 32
	k, err := KeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := rng.Gaussian(r, nil, dim)
	tq := k.TrapGen(q)
	const n = 30
	pts := make([][]float64, n)
	cts := make([][]float64, n)
	for i := range pts {
		pts[i] = rng.Gaussian(r, nil, dim)
		cts[i] = k.Encrypt(pts[i])
	}
	// Selection sort by DCE comparisons.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if closer(cts[order[j]], cts[order[best]], tq) {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	for i := 1; i < n; i++ {
		if vec.SqDist(pts[order[i-1]], q) > vec.SqDist(pts[order[i]], q)+relGap {
			t.Fatalf("DCE ranking violated plaintext order at position %d", i)
		}
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	// Two encryptions of the same vector must differ (per-vector
	// randomness), yet compare identically.
	r := rng.NewSeeded(9)
	dim := 16
	k, err := KeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := rng.Gaussian(r, nil, dim)
	a := k.Encrypt(p)
	b := k.Encrypt(p)
	if kerneltest.ApproxEqual(a, b, 1e-12) {
		t.Fatal("two encryptions of the same vector produced identical ciphertexts")
	}
	q := rng.Gaussian(r, nil, dim)
	o := rng.Gaussian(r, nil, dim)
	co := k.Encrypt(o)
	tq := k.TrapGen(q)
	if closer(co, a, tq) != closer(co, b, tq) {
		t.Fatal("re-encryption changed a comparison result")
	}
}

func TestTrapdoorIsRandomized(t *testing.T) {
	r := rng.NewSeeded(10)
	k, err := KeyGen(r, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := rng.Gaussian(r, nil, 16)
	a := k.TrapGen(q)
	b := k.TrapGen(q)
	if kerneltest.ApproxEqual(a.Q, b.Q, 1e-12) {
		t.Fatal("two trapdoors for the same query are identical")
	}
}

func TestZProportionalToDistanceGap(t *testing.T) {
	// Theorem 3: Z = 2·r_o·r_p·r_q·(dist(o,q) − dist(p,q)) with
	// r ∈ [0.5, 2)³, so |Z| must lie within [0.25, 16)·|gap| of the
	// plaintext gap.
	r := rng.NewSeeded(11)
	dim := 20
	k, err := KeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		o := rng.Gaussian(r, nil, dim)
		p := rng.Gaussian(r, nil, dim)
		q := rng.Gaussian(r, nil, dim)
		gap := vec.SqDist(o, q) - vec.SqDist(p, q)
		if math.Abs(gap) < 1e-6 {
			continue
		}
		z := DistanceComp(k.Encrypt(o), k.Encrypt(p), k.TrapGen(q))
		ratio := z / (2 * gap)
		if ratio < 0.25*0.9 || ratio > 16.0/0.9 {
			t.Fatalf("Z/(2·gap) = %g outside the r_o·r_p·r_q range", ratio)
		}
	}
}

func TestDimMismatchPanics(t *testing.T) {
	r := rng.NewSeeded(12)
	k, err := KeyGen(r, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"Encrypt": func() { k.Encrypt(make([]float64, 7)) },
		"TrapGen": func() { k.TrapGen(make([]float64, 9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on dimension mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestConcurrentEncrypt(t *testing.T) {
	// The key must be safe for concurrent encryption (the owner
	// parallelizes database encryption).
	r := rng.NewSeeded(13)
	dim := 16
	k, err := KeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := rng.Gaussian(r, nil, dim)
	tq := k.TrapGen(q)
	const workers = 8
	done := make(chan bool, workers)
	for w := 0; w < workers; w++ {
		go func(seed uint64) {
			rr := rng.NewSeeded(seed)
			ok := true
			for i := 0; i < 25; i++ {
				o := rng.Gaussian(rr, nil, dim)
				p := rng.Gaussian(rr, nil, dim)
				do, dp := vec.SqDist(o, q), vec.SqDist(p, q)
				if math.Abs(do-dp) <= relGap*(do+dp+1) {
					continue
				}
				z := DistanceComp(k.Encrypt(o), k.Encrypt(p), tq)
				if (z < 0) != (do < dp) {
					ok = false
				}
			}
			done <- ok
		}(uint64(w) + 100)
	}
	for w := 0; w < workers; w++ {
		if !<-done {
			t.Fatal("concurrent encryption produced a wrong comparison")
		}
	}
}

// TestTrapGenMatchesEquation15 holds the folded query matrix to Equation 15
// evaluated the long way: two keys from one seed draw the same β₁, β₂ and
// r_q, one runs TrapGen, the other inverts M₁, M₂ and the M₃ it rebuilds
// from its halves, applies π₂ to [M₁⁻¹q₁; M₂⁻¹q₂], stacks [q̄; −q̄] and
// scales M₃⁻¹ of it by r_q·kv₂◦kv₄.
func TestTrapGenMatchesEquation15(t *testing.T) {
	for _, dim := range []int{1, 7, 96, 200} {
		folded, err := KeyGen(rng.NewSeeded(15), dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		long, err := KeyGen(rng.NewSeeded(15), dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		big, sub := long.CiphertextDim(), long.half+4
		m3 := matrix.NewDense(big, big)
		for i := 0; i < long.padDim+8; i++ {
			copy(m3.Row(i), long.mup.Row(i))
			copy(m3.Row(long.padDim+8+i), long.mdown.Row(i))
		}
		inv1, err1 := long.m1.Inverse()
		inv2, err2 := long.m2.Inverse()
		inv3, err3 := m3.Inverse()
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatal(err)
		}
		qr := rng.NewSeeded(uint64(dim))
		for trial := 0; trial < 5; trial++ {
			q := rng.Gaussian(qr, nil, dim)
			got := folded.TrapGen(q).Q

			rs := drawQueryRand(long.rnd)
			x := long.randomizeQuery(q, rs)
			enc := append(inv1.MulVec(nil, x[:sub]), inv2.MulVec(nil, x[sub:])...)
			bar := long.pi2.Apply(nil, enc)
			w := inv3.MulVec(nil, append(bar, vec.Scale(nil, -1, bar)...))
			rq := rs[2]
			want := make([]float64, big)
			for i := range want {
				want[i] = rq * w[i] * long.kv2[i] * long.kv4[i]
			}

			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*math.Abs(want[i]) {
					t.Fatalf("d=%d trial %d: component %d is %v, Equation 15 gives %v", dim, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestKeyKeepsNoSquareMatrix: the query side is folded, so no matrix the
// key holds is (2d+16)² — not M₃⁻¹, not M₃.
func TestKeyKeepsNoSquareMatrix(t *testing.T) {
	k, err := KeyGen(rng.NewSeeded(16), 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	big := k.CiphertextDim()
	v := reflect.ValueOf(k).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Type() != reflect.TypeOf((*matrix.Dense)(nil)) {
			continue
		}
		if m := f.Elem(); m.FieldByName("rows").Int() == int64(big) && m.FieldByName("cols").Int() == int64(big) {
			t.Errorf("Key.%s is %d×%d", v.Type().Field(i).Name, big, big)
		}
	}
}

func TestOddDimensionPadding(t *testing.T) {
	r := rng.NewSeeded(14)
	for _, dim := range []int{1, 3, 5, 9, 31} {
		k, err := KeyGen(r, dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			o := rng.Gaussian(r, nil, dim)
			p := rng.Gaussian(r, nil, dim)
			q := rng.Gaussian(r, nil, dim)
			checkComparison(t, k, o, p, q)
		}
	}
}
