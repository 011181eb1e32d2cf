package ame

import (
	"math"
	"testing"

	"ppanns/internal/kerneltest"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

const relGap = 1e-9

func checkComparison(t *testing.T, k *Key, o, p, q []float64) {
	t.Helper()
	do := vec.SqDist(o, q)
	dp := vec.SqDist(p, q)
	if math.Abs(do-dp) <= relGap*(do+dp+1) {
		return
	}
	z := Compare(k.Encrypt(o), k.Encrypt(p), k.TrapGen(q))
	if (z < 0) != (do < dp) {
		t.Fatalf("Compare sign wrong: z=%g, dist(o,q)=%g, dist(p,q)=%g", z, do, dp)
	}
}

func TestKeyGenValidation(t *testing.T) {
	r := rng.NewSeeded(1)
	if _, err := KeyGen(r, 0); err == nil {
		t.Fatal("expected error for dim 0")
	}
	if _, err := KeyGenScaled(r, 4, 0); err == nil {
		t.Fatal("expected error for scale 0")
	}
}

func TestShapes(t *testing.T) {
	r := rng.NewSeeded(2)
	dim := 10
	k, err := KeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	if k.ext != 2*dim+6 {
		t.Fatalf("ext = %d, want %d", k.ext, 2*dim+6)
	}
	p := rng.Gaussian(r, nil, dim)
	ct := k.Encrypt(p)
	for i := 0; i < Shares; i++ {
		if len(ct.L[i]) != k.ext || len(ct.R[i]) != k.ext {
			t.Fatalf("share %d has wrong length", i)
		}
	}
	td := k.TrapGen(p)
	for i := 0; i < Shares; i++ {
		if td.T[i].Rows() != k.ext || len(td.T[i].Row(0)) != k.ext {
			t.Fatalf("trapdoor share %d has wrong shape", i)
		}
	}
}

func TestComparisonCorrectness(t *testing.T) {
	r := rng.NewSeeded(3)
	for _, dim := range []int{2, 5, 16} {
		k, err := KeyGen(r, dim)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 15; trial++ {
			o := rng.Gaussian(r, nil, dim)
			p := rng.Gaussian(r, nil, dim)
			q := rng.Gaussian(r, nil, dim)
			checkComparison(t, k, o, p, q)
		}
	}
}

func TestComparisonWithScale(t *testing.T) {
	r := rng.NewSeeded(4)
	dim := 8
	k, err := KeyGenScaled(r, dim, 1.0/255)
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
		checkComparison(t, k, randRaw(), randRaw(), randRaw())
	}
}

func TestRankingAgainstPlaintext(t *testing.T) {
	r := rng.NewSeeded(5)
	dim := 12
	k, err := KeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	q := rng.Gaussian(r, nil, dim)
	td := k.TrapGen(q)
	const n = 12
	pts := make([][]float64, n)
	cts := make([]*Ciphertext, n)
	for i := range pts {
		pts[i] = rng.Gaussian(r, nil, dim)
		cts[i] = k.Encrypt(pts[i])
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			di, dj := vec.SqDist(pts[i], q), vec.SqDist(pts[j], q)
			if math.Abs(di-dj) <= relGap*(di+dj+1) {
				continue
			}
			if (Compare(cts[i], cts[j], td) < 0) != (di < dj) {
				t.Fatalf("pairwise comparison (%d,%d) wrong", i, j)
			}
		}
	}
}

func TestEncryptionRandomized(t *testing.T) {
	r := rng.NewSeeded(6)
	dim := 6
	k, err := KeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	p := rng.Gaussian(r, nil, dim)
	a, b := k.Encrypt(p), k.Encrypt(p)
	if kerneltest.ApproxEqual(a.L[0], b.L[0], 1e-12) {
		t.Fatal("two encryptions produced identical left shares")
	}
	td1, td2 := k.TrapGen(p), k.TrapGen(p)
	if kerneltest.ApproxEqual(td1.T[0].Raw(), td2.T[0].Raw(), 1e-12) {
		t.Fatal("two trapdoors produced identical share matrices")
	}
}

func TestLeftRightRolesIndependent(t *testing.T) {
	// A vector compared against itself: Z should be ~0 relative to the
	// magnitude of genuine gaps, and must not blow up.
	r := rng.NewSeeded(7)
	dim := 8
	k, err := KeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	p := rng.Gaussian(r, nil, dim)
	q := rng.Gaussian(r, nil, dim)
	ct := k.Encrypt(p)
	z := Compare(ct, ct, k.TrapGen(q))
	// dist(p,q) − dist(p,q) = 0 ⇒ z ≈ 0 up to rounding noise.
	if math.Abs(z) > 1e-6 {
		t.Fatalf("self-comparison = %g, want ≈0", z)
	}
}

func TestDimMismatchPanics(t *testing.T) {
	r := rng.NewSeeded(8)
	k, err := KeyGen(r, 6)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"Encrypt": func() { k.Encrypt(make([]float64, 5)) },
		"TrapGen": func() { k.TrapGen(make([]float64, 7)) },
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

func TestConcurrentEncrypt(t *testing.T) {
	r := rng.NewSeeded(9)
	dim := 6
	k, err := KeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	q := rng.Gaussian(r, nil, dim)
	td := k.TrapGen(q)
	done := make(chan bool, 4)
	for w := 0; w < 4; w++ {
		go func(seed uint64) {
			rr := rng.NewSeeded(seed)
			ok := true
			for i := 0; i < 10; i++ {
				o := rng.Gaussian(rr, nil, dim)
				p := rng.Gaussian(rr, nil, dim)
				do, dp := vec.SqDist(o, q), vec.SqDist(p, q)
				if math.Abs(do-dp) <= relGap*(do+dp+1) {
					continue
				}
				if (Compare(k.Encrypt(o), k.Encrypt(p), td) < 0) != (do < dp) {
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

// TestEncryptWithStream: ciphertexts drawn from a caller's stream are fixed
// by (key, stream state, vector) and compare like Encrypt's.
func TestEncryptWithStream(t *testing.T) {
	r := rng.NewSeeded(13)
	const dim = 5
	k, err := KeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	streams := rng.NewStreams(r)
	o, p, q := rng.Gaussian(r, nil, dim), rng.Gaussian(r, nil, dim), rng.Gaussian(r, nil, dim)
	co, again := k.EncryptWith(streams.At(0), o), k.EncryptWith(streams.At(0), o)
	for i := range co.L {
		if !kerneltest.ApproxEqual(co.L[i], again.L[i], 0) || !kerneltest.ApproxEqual(co.R[i], again.R[i], 0) {
			t.Fatalf("share %d: same stream, different ciphertexts", i)
		}
	}
	z := Compare(co, k.EncryptWith(streams.At(1), p), k.TrapGen(q))
	if do, dp := vec.SqDist(o, q), vec.SqDist(p, q); (z < 0) != (do < dp) {
		t.Fatalf("Compare sign wrong: z=%g, dist(o,q)=%g, dist(p,q)=%g", z, do, dp)
	}
}
