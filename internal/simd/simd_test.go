package simd

import (
	"os"
	"testing"
)

// TestAvailableAlwaysIncludesScalar: the variant resolved at init is one
// this machine can run — scalar, or AVX2 only where HasAVX2 — and it is
// what pick makes of this process's PPANNS_KERNEL.
func TestAvailableAlwaysIncludesScalar(t *testing.T) {
	switch Kernel() {
	case Scalar:
	case AVX2:
		if !HasAVX2() {
			t.Fatal("Kernel() = avx2 on a machine without AVX2")
		}
	default:
		t.Fatalf("Kernel() = %q, want scalar or avx2", Kernel())
	}
	if UseAVX2() != (Kernel() == AVX2) {
		t.Fatalf("UseAVX2() = %v with Kernel() = %q", UseAVX2(), Kernel())
	}
	if want := pick(os.Getenv("PPANNS_KERNEL")); Kernel() != want {
		t.Fatalf("Kernel() = %q, pick of PPANNS_KERNEL = %q", Kernel(), want)
	}
}

func TestPickHonorsOverride(t *testing.T) {
	best := Scalar
	if HasAVX2() {
		best = AVX2
	}
	for _, c := range []struct{ env, want string }{
		{"", best},
		{"  ", best},
		{"scalar", Scalar},
		{" SCALAR ", Scalar},
		{"avx2", best},
		{"AVX2", best},
		{"no-such-kernel", Scalar},
	} {
		if got := pick(c.env); got != c.want {
			t.Fatalf("pick(%q) = %q, want %q", c.env, got, c.want)
		}
	}
}
