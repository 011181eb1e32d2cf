package dcpe

import (
	"math"
	"testing"
	"testing/quick"

	"ppanns/internal/kerneltest"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

func TestKeyGenValidation(t *testing.T) {
	r := rng.NewSeeded(1)
	if _, err := KeyGen(r, 0, 1024, 1); err == nil {
		t.Fatal("expected error for dim 0")
	}
	if _, err := KeyGen(r, 4, 0, 1); err == nil {
		t.Fatal("expected error for s = 0")
	}
	if _, err := KeyGen(r, 4, 1024, -1); err == nil {
		t.Fatal("expected error for negative beta")
	}
	// ReadKey refuses a NaN or infinite s or β, so KeyGen must not make one.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := KeyGen(r, 4, 1024, v); err == nil {
			t.Fatalf("expected error for beta %g", v)
		}
		if _, err := KeyGen(r, 4, v, 1); err == nil {
			t.Fatalf("expected error for s = %g", v)
		}
	}
}

func TestNoiseBound(t *testing.T) {
	// ‖C − s·p‖ ≤ sβ/4 for every encryption.
	r := rng.NewSeeded(2)
	dim := 32
	k, err := KeyGen(r, dim, 1024, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		p := rng.Gaussian(r, nil, dim)
		c := k.Encrypt(p)
		noise := dist(c, vec.Scale(nil, k.s, p))
		if noise > k.maxNoise()*(1+1e-12) {
			t.Fatalf("noise %g exceeds bound %g", noise, k.maxNoise())
		}
	}
}

func TestNoiseFillsBall(t *testing.T) {
	// x = (sβ/4)·x′^(1/d) concentrates mass near the shell, like a true
	// uniform ball distribution; check the radius distribution is not
	// degenerate (some points well inside, most near the boundary for
	// large d).
	r := rng.NewSeeded(3)
	dim := 16
	k, err := KeyGen(r, dim, 1, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, dim)
	nearShell := 0
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		c := k.Encrypt(p)
		radius := vec.Norm(c) / k.maxNoise()
		if radius > 0.8 {
			nearShell++
		}
	}
	// P(radius > 0.8) = 1 − 0.8^16 ≈ 0.972.
	if nearShell < trials*9/10 {
		t.Fatalf("only %d/%d samples near the shell; ball sampling looks wrong", nearShell, trials)
	}
}

func TestBetaZeroIsExactScaling(t *testing.T) {
	r := rng.NewSeeded(4)
	dim := 8
	k, err := KeyGen(r, dim, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := rng.Gaussian(r, nil, dim)
	c := k.Encrypt(p)
	if !kerneltest.ApproxEqual(c, vec.Scale(nil, 3, p), 0) {
		t.Fatal("beta=0 encryption is not exact scaling")
	}
}

func TestBetaDCPProperty(t *testing.T) {
	// Definition 3: dist(o,q) < dist(p,q) − β ⇒ encrypted order preserved
	// (Euclidean distances). This is the guarantee the filter phase needs.
	r := rng.NewSeeded(5)
	dim := 24
	beta := 1.5
	k, err := KeyGen(r, dim, 1024, beta)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for trial := 0; trial < 2000 && checked < 300; trial++ {
		o := rng.Gaussian(r, nil, dim)
		p := rng.Gaussian(r, nil, dim)
		q := rng.Gaussian(r, nil, dim)
		if dist(o, q) >= dist(p, q)-beta {
			continue
		}
		checked++
		co, cp, cq := k.Encrypt(o), k.Encrypt(p), k.Encrypt(q)
		if dist(co, cq) >= dist(cp, cq) {
			t.Fatalf("β-DCP violated: dist(o,q)=%g, dist(p,q)=%g, enc %g vs %g",
				dist(o, q), dist(p, q), dist(co, cq), dist(cp, cq))
		}
	}
	if checked < 100 {
		t.Fatalf("only %d qualifying triples; test workload misconfigured", checked)
	}
}

func TestApproxDistanceWithinBand(t *testing.T) {
	// |dist(C_p, C_q)/s − dist(p, q)| ≤ β/2.
	r := rng.NewSeeded(6)
	dim := 16
	beta := 2.0
	k, err := KeyGen(r, dim, 512, beta)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		rr := rng.NewSeeded(seed)
		p := rng.Gaussian(rr, nil, dim)
		q := rng.Gaussian(rr, nil, dim)
		cp, cq := k.Encrypt(p), k.Encrypt(q)
		encDist := dist(cp, cq) / k.s
		return math.Abs(encDist-dist(p, q)) <= beta/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptIsRandomized(t *testing.T) {
	r := rng.NewSeeded(8)
	k, err := KeyGen(r, 8, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := rng.Gaussian(r, nil, 8)
	if kerneltest.ApproxEqual(k.Encrypt(p), k.Encrypt(p), 1e-12) {
		t.Fatal("two SAP encryptions identical despite beta > 0")
	}
}

func TestDimMismatchPanics(t *testing.T) {
	r := rng.NewSeeded(9)
	k, err := KeyGen(r, 8, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Encrypt(make([]float64, 7))
}

func TestConcurrentEncrypt(t *testing.T) {
	r := rng.NewSeeded(10)
	dim := 16
	k, err := KeyGen(r, dim, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 8)
	for w := 0; w < 8; w++ {
		go func(seed uint64) {
			rr := rng.NewSeeded(seed)
			ok := true
			for i := 0; i < 50; i++ {
				p := rng.Gaussian(rr, nil, dim)
				c := k.Encrypt(p)
				if dist(c, vec.Scale(nil, k.s, p)) > k.maxNoise()*(1+1e-12) {
					ok = false
				}
			}
			done <- ok
		}(uint64(w))
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("concurrent encryption violated the noise bound")
		}
	}
}

// TestEncryptWithStream: a ciphertext drawn from a caller's stream is fixed
// by (key, stream state, vector), stays inside the perturbation ball, and
// leaves the key's own stream where it was.
func TestEncryptWithStream(t *testing.T) {
	r := rng.NewSeeded(12)
	const dim = 24
	k, err := KeyGen(r, dim, 1024, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := KeyGen(rng.NewSeeded(12), dim, 1024, 2.5)
	streams := rng.NewStreams(r)
	for i := 0; i < 50; i++ {
		p := rng.Gaussian(r, nil, dim)
		a, b := k.EncryptWith(nil, streams.At(i), p), k.EncryptWith(nil, streams.At(i), p)
		if !kerneltest.ApproxEqual(a, b, 0) {
			t.Fatalf("record %d: same stream, different ciphertexts", i)
		}
		if noise := dist(a, vec.Scale(nil, k.s, p)); noise > k.maxNoise()*(1+1e-12) {
			t.Fatalf("noise %g exceeds bound %g", noise, k.maxNoise())
		}
	}
	p := rng.Gaussian(r, nil, dim)
	if !kerneltest.ApproxEqual(k.Encrypt(p), twin.Encrypt(p), 0) {
		t.Fatal("EncryptWith advanced the key's sequential stream")
	}
}

func dist(a, b []float64) float64 { return math.Sqrt(vec.SqDist(a, b)) }
