// Package aspe models what asymmetric scalar-product-preserving encryption
// (Wong et al.) and the "enhanced" variants the paper revisits in Section
// III-A leak to the server, together with the known-plaintext attacks of
// Theorem 1, Corollaries 1–2 and Theorem 2 that recover queries and
// database vectors from the leaked distance transformations. The scheme's
// own encryption lives in the package's tests, which show that the leak
// LeakedValue computes is what a server reads off real ciphertexts.
//
// The scheme here exists as a *negative* baseline: the attack package
// demonstrates why distance-value leakage (even transformed) is fatal, which
// motivates DCE's comparison-only leakage.
//
// Encoding. A database vector p is extended to p′ = [−2pᵀ, ‖p‖², 1] and
// encrypted as C_p = Mᵀp′ for a secret invertible M ∈ R^(d+2)×(d+2). A query
// q with per-query randomness (r₁ > 0, r₂) is encrypted as
// T_q = M⁻¹·[r₁qᵀ, r₁, r₂]ᵀ, so the server computes
//
//	C_pᵀ·T_q = r₁(‖p‖² − 2pᵀq) + r₂ = r₁·D(p,q) + r₂,
//
// a query-specific increasing affine transform of the squared distance
// shifted by the (constant for a fixed q) ‖q‖² term — exactly the "linear
// transformation of distances" leakage of Theorem 1. The Exponential,
// Logarithmic and Square variants expose exp/log/square transforms of that
// core, modelling the hardened variants the paper analyzes.
package aspe

import (
	"fmt"
	"math"

	"ppanns/internal/vec"
)

// Variant selects the distance transformation an enhanced ASPE scheme
// leaks to the server.
type Variant int

const (
	// Linear leaks r₁·D + r₂ (Theorem 1).
	Linear Variant = iota
	// Exponential leaks exp(r₁·D + r₂) (Corollary 1).
	Exponential
	// Logarithmic leaks ln(r₁·D + r₂) after a positivity shift
	// (Corollary 2).
	Logarithmic
	// Square leaks r₁·(D + r₂)² + r₃ (Theorem 2).
	Square
)

// String names the variant for reports.
func (v Variant) String() string {
	switch v {
	case Linear:
		return "linear"
	case Exponential:
		return "exponential"
	case Logarithmic:
		return "logarithmic"
	case Square:
		return "square"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// QueryRand is the per-query randomness. It is generated at trapdoor time
// and — in a deployment — known only to the user.
type QueryRand struct {
	R1, R2, R3 float64
}

// ExtendDB returns p′ = [−2pᵀ, ‖p‖², 1], the database-side extension.
func ExtendDB(p []float64) []float64 {
	out := make([]float64, len(p)+2)
	for i, v := range p {
		out[i] = -2 * v
	}
	out[len(p)] = vec.SqNorm(p)
	out[len(p)+1] = 1
	return out
}

// dValue returns the core quantity D(p,q) = ‖p‖² − 2pᵀq = dist(p,q) − ‖q‖².
// For a fixed query it is a constant shift of the squared distance, so any
// increasing transform of D orders candidates identically to dist.
func dValue(p, q []float64) float64 { return vec.SqNorm(p) - 2*vec.Dot(p, q) }

// logShift keeps the logarithmic variant's argument positive: the leaked
// value is ln(r₁·D + r₂ + logShift·r₁·‖q-scale‖); we use a data-dependent
// shift chosen by the caller via LeakOptions.
type LeakOptions struct {
	// Shift is added inside the log for the Logarithmic variant so its
	// argument stays positive. It plays the role of a public protocol
	// constant; the attack treats it as known.
	Shift float64
}

// LeakedValue computes the transformed distance value L(C_p, T_q) that
// variant v exposes to the server for plaintext pair (p, q) under query
// randomness qr. For Linear this equals the inner product of EncryptDB(p) and
// EncryptQuery(q, qr), computed purely from ciphertexts; the other variants
// apply their transform to that same core, modelling the enhanced schemes'
// observable output.
func LeakedValue(v Variant, p, q []float64, qr QueryRand, opt LeakOptions) float64 {
	// The float64 conversions forbid fusing a product into a sum, so every
	// architecture rounds alike.
	core := float64(qr.R1*dValue(p, q)) + qr.R2
	switch v {
	case Linear:
		return core
	case Exponential:
		return math.Exp(clampExp(core))
	case Logarithmic:
		arg := core + opt.Shift
		if arg <= 0 {
			panic(fmt.Sprintf("aspe: logarithmic leak argument %g not positive; increase LeakOptions.Shift", arg))
		}
		return math.Log(arg)
	case Square:
		t := dValue(p, q) + qr.R2
		return float64(qr.R1*t*t) + qr.R3
	default:
		panic(fmt.Sprintf("aspe: unknown variant %d", v))
	}
}

// clampExp bounds the exponent so the exponential variant stays finite on
// adversarially large toy inputs; attacks take ln first, so the clamp only
// guards the demo against overflow.
func clampExp(x float64) float64 {
	const lim = 700
	if x > lim {
		return lim
	}
	if x < -lim {
		return -lim
	}
	return x
}
