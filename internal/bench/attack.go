package bench

import (
	"math"

	"ppanns/internal/aspe"
	"ppanns/internal/dce"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// Attack reproduces Section III's insecurity results as running code: the
// known-plaintext attacks of Theorem 1, Corollaries 1–2 and Theorem 2
// recover queries (and a database vector) from every enhanced-ASPE
// variant's leakage, while the same solver applied to what a curious server
// actually observes under DCE (the randomized comparison values Z_{o,p,q})
// recovers nothing.
func Attack(cfg Config) error {
	cfg = cfg.withDefaults()
	r := rng.NewSeeded(cfg.Seed ^ 0xa77ac)
	const dim = 16
	cfg.printf("# Section III — KPA attacks on enhanced ASPE (d=%d; square variant d=8)\n", dim)
	cfg.printf("%-16s %22s %22s\n", "variant", "query rel. error", "db-vector rel. error")

	known := make([][]float64, dim+2)
	for i := range known {
		known[i] = rng.Gaussian(r, nil, dim)
	}
	q := rng.Gaussian(r, nil, dim)
	secret := rng.Gaussian(r, nil, dim)

	relErr := func(got, want []float64) float64 {
		if got == nil {
			return math.Inf(1)
		}
		return vec.Dist(got, want) / (vec.Norm(want) + 1e-30)
	}

	// --- Linear / Exponential / Logarithmic (Theorem 1, Corollaries 1–2).
	type variantRun struct {
		name    string
		variant aspe.Variant
		opt     aspe.LeakOptions
		recover func([][]float64, []float64) (*aspe.QueryRecovery, error)
	}
	logOpt := aspe.LeakOptions{Shift: 500}
	runs := []variantRun{
		{"linear", aspe.Linear, aspe.LeakOptions{}, aspe.RecoverQueryLinear},
		{"exponential", aspe.Exponential, aspe.LeakOptions{}, aspe.RecoverQueryExponential},
		{"logarithmic", aspe.Logarithmic, logOpt, func(k [][]float64, l []float64) (*aspe.QueryRecovery, error) {
			return aspe.RecoverQueryLogarithmic(k, l, logOpt)
		}},
	}
	for _, run := range runs {
		qr := aspe.QueryRand{R1: rng.Uniform(r, 0.5, 2), R2: rng.UniformNonZero(r, 0.5, 2)}
		leaks := make([]float64, len(known))
		for i, p := range known {
			leaks[i] = aspe.LeakedValue(run.variant, p, q, qr, run.opt)
		}
		rec, err := run.recover(known, leaks)
		qErr := math.Inf(1)
		if err == nil {
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
				return err
			}
			recs = append(recs, rj)
		}
		secLeaks := make([]float64, len(recs))
		for j, rj := range recs {
			secLeaks[j] = vec.Dot(aspe.ExtendDB(secret), rj.Coeff)
		}
		got, err := aspe.RecoverDatabaseVector(recs, secLeaks)
		dbErr := math.Inf(1)
		if err == nil {
			dbErr = relErr(got, secret)
		}
		cfg.printf("%-16s %22.2e %22.2e\n", run.name, qErr, dbErr)
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
		rec, err := aspe.RecoverQuerySquare(knownS, leaks)
		qErr := math.Inf(1)
		if err == nil {
			qErr = relErr(rec.Query, qs)
		}
		cfg.printf("%-16s %22.2e %22s\n", "square (d=8)", qErr, "(see aspe tests)")
	}

	// --- Control: the same Theorem-1 solver fed with DCE's observable
	// comparison values.
	cfg.printf("\n# Control — Theorem-1 solver applied to DCE observables\n")
	dceKey, err := dce.KeyGen(rng.Derive(r, 9), dim)
	if err != nil {
		return err
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
		cfg.printf("DCE: solver failed outright (%v) — no recovery\n", err)
	} else {
		cfg.printf("DCE: query rel. error %.2f (≈1 means no information recovered)\n", relErr(rec.Query, q))
	}
	cfg.printf("\n(expected: ASPE variants recover to ~1e-6 or better; DCE recovery error ~O(1))\n")
	return nil
}
