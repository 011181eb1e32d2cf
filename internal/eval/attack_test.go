package eval

import (
	"math"
	"testing"

	"ppanns/internal/aspe"
	"ppanns/internal/dce"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// TestAttack reproduces Section III's insecurity results as running code:
// the known-plaintext attacks of Theorem 1, Corollaries 1–2 and Theorem 2
// recover queries (and a database vector) from every enhanced-ASPE
// variant's leakage to a relative error of 1e-6 or better, while the same
// solver applied to what a curious server observes under DCE (the
// randomized comparison values Z_{o,p,q}) recovers nothing: its error is
// at least 0.5.
func TestAttack(t *testing.T) {
	s := start(t)
	var tb table
	r := rng.NewSeeded(s.seed ^ 0xa77ac)
	const dim = 16
	tb.printf("# Section III — KPA attacks on enhanced ASPE (d=%d; square variant d=8)\n", dim)
	tb.printf("%-16s %22s %22s\n", "variant", "query rel. error", "db-vector rel. error")

	known := make([][]float64, dim+2)
	for i := range known {
		known[i] = rng.Gaussian(r, nil, dim)
	}
	q := rng.Gaussian(r, nil, dim)
	secret := rng.Gaussian(r, nil, dim)

	relErr := func(got, want []float64) float64 {
		return vec.Dist(got, want) / (vec.Norm(want) + 1e-30)
	}
	recovered := func(name string, err float64) {
		if !(err <= 1e-6) {
			t.Errorf("%s: relative error %.2e, want ≤ 1e-6", name, err)
		}
	}

	// --- Linear / Exponential / Logarithmic (Theorem 1, Corollaries 1–2).
	logOpt := aspe.LeakOptions{Shift: 500}
	for _, run := range []struct {
		name    string
		variant aspe.Variant
		opt     aspe.LeakOptions
		recover func([][]float64, []float64) (*aspe.QueryRecovery, error)
	}{
		{"linear", aspe.Linear, aspe.LeakOptions{}, aspe.RecoverQueryLinear},
		{"exponential", aspe.Exponential, aspe.LeakOptions{}, aspe.RecoverQueryExponential},
		{"logarithmic", aspe.Logarithmic, logOpt, func(k [][]float64, l []float64) (*aspe.QueryRecovery, error) {
			return aspe.RecoverQueryLogarithmic(k, l, logOpt)
		}},
	} {
		qr := aspe.QueryRand{R1: rng.Uniform(r, 0.5, 2), R2: rng.UniformNonZero(r, 0.5, 2)}
		leaks := make([]float64, len(known))
		for i, p := range known {
			leaks[i] = aspe.LeakedValue(run.variant, p, q, qr, run.opt)
		}
		qErr := math.Inf(1)
		if rec, err := run.recover(known, leaks); err == nil {
			qErr = relErr(rec.Query, q)
		}

		// Database recovery: gather d+2 recovered queries, then attack an
		// unseen vector.
		var recs []*aspe.QueryRecovery
		for j := 0; j < dim+2; j++ {
			qj := rng.Gaussian(r, nil, dim)
			qrj := aspe.QueryRand{R1: rng.Uniform(r, 0.5, 2), R2: rng.UniformNonZero(r, 0.5, 2)}
			lj := make([]float64, len(known))
			for i, p := range known {
				lj[i] = aspe.LeakedValue(run.variant, p, qj, qrj, run.opt)
			}
			rj, err := run.recover(known, lj)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rj)
		}
		secLeaks := make([]float64, len(recs))
		for j, rj := range recs {
			secLeaks[j] = vec.Dot(aspe.ExtendDB(secret), rj.Coeff)
		}
		dbErr := math.Inf(1)
		if got, err := aspe.RecoverDatabaseVector(recs, secLeaks); err == nil {
			dbErr = relErr(got, secret)
		}
		tb.printf("%-16s %22.2e %22.2e\n", run.name, qErr, dbErr)
		recovered(run.name+" query", qErr)
		recovered(run.name+" db vector", dbErr)
	}

	// --- Square (Theorem 2), smaller dimension to keep the quadratic
	// embedding readable.
	{
		const sd = 8
		m := aspe.SquareFeatureDim(sd)
		knownS := make([][]float64, m)
		for i := range knownS {
			knownS[i] = rng.Gaussian(r, nil, sd)
		}
		qs := rng.Gaussian(r, nil, sd)
		qr := aspe.QueryRand{R1: 1.3, R2: -0.7, R3: 0.9}
		leaks := make([]float64, m)
		for i, p := range knownS {
			leaks[i] = aspe.LeakedValue(aspe.Square, p, qs, qr, aspe.LeakOptions{})
		}
		qErr := math.Inf(1)
		if rec, err := aspe.RecoverQuerySquare(knownS, leaks); err == nil {
			qErr = relErr(rec.Query, qs)
		}
		tb.printf("%-16s %22.2e %22s\n", "square (d=8)", qErr, "(see aspe tests)")
		recovered("square query", qErr)
	}

	// --- Control: the same Theorem-1 solver fed with DCE's observable
	// comparison values.
	tb.printf("\n# Control — Theorem-1 solver applied to DCE observables\n")
	dceKey, err := dce.KeyGen(rng.Derive(r, 9), dim)
	if err != nil {
		t.Fatal(err)
	}
	cts := make([][]float64, len(known))
	for i, p := range known {
		cts[i] = dceKey.Encrypt(p)
	}
	tq := dceKey.TrapGen(q)
	// The server can compute Z_{p_0, p_i, q} for all i; treat those as if
	// they were distance leaks and run the solver.
	zleaks := make([]float64, len(known))
	for i := range known {
		zleaks[i] = dce.DistanceComp(cts[0], cts[i], tq)
	}
	rec, err := aspe.RecoverQueryLinear(known, zleaks)
	if err != nil {
		tb.printf("DCE: solver failed outright (%v) — no recovery\n", err)
	} else {
		e := relErr(rec.Query, q)
		tb.printf("DCE: query rel. error %.2f (≈1 means no information recovered)\n", e)
		if e < 0.5 {
			t.Errorf("DCE control: the solver recovers the query to %.2f, want ≥ 0.5", e)
		}
	}
	s.check(t, "attack", &tb)
}
