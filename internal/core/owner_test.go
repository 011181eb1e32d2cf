package core

import (
	"math"
	"strings"
	"testing"

	"ppanns/internal/dataset"
)

func TestCalibrateBeta(t *testing.T) {
	d := dataset.DeepLike(1500, 20, 3)
	beta, err := CalibrateBeta(d.Train, d.Queries, 10, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if beta <= 0 {
		t.Fatalf("calibrated beta = %g", beta)
	}
	// The calibrated β is a contract: the seed derivation, the bisection
	// and the proxy's bounds fix it to the bit. A change that moves it
	// re-captures this golden and says why.
	if got, want := math.Float64bits(beta), uint64(0x3feb3c302f25aace); got != want {
		t.Fatalf("calibrated beta = %v (bits %#x), golden %v (bits %#x)",
			beta, got, math.Float64frombits(want), want)
	}
	// The proxy recall at the calibrated beta must be near the target.
	r, err := sapRecallProxy(d.Train, d.Queries, 10, beta, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.3 || r > 0.7 {
		t.Fatalf("proxy recall at calibrated beta = %.3f, want ≈0.5", r)
	}
	// Monotonicity: smaller beta ⇒ higher recall.
	rLow, err := sapRecallProxy(d.Train, d.Queries, 10, beta/4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rLow < r {
		t.Fatalf("recall not monotone in beta: %.3f at β/4 vs %.3f at β", rLow, r)
	}
	if _, err := CalibrateBeta(d.Train, d.Queries, 10, 1.5, 3); err == nil {
		t.Fatal("expected error for target outside (0,1)")
	}
	// With k at or above the corpus size every β finds every neighbour, so
	// the target is never reached: an error, not the top of the bracket.
	small := dataset.DeepLike(5, 5, 3)
	if b, err := CalibrateBeta(small.Train, small.Train, 10, 0.5, 42); err == nil {
		t.Fatalf("5 vectors at k=10 calibrated β = %g, want an error", b)
	} else if !strings.Contains(err.Error(), "by hand") {
		t.Fatalf("error %q does not say to choose β by hand", err)
	}
}
