package simd

import (
	"os"
	"testing"
)

// TestAvailableAlwaysIncludesScalar: the variant resolved at init is one
// this machine can run — scalar, AVX2 only where HasAVX2, AVX-512 only
// where HasAVX512 — and it is what pick makes of this process's
// PPANNS_KERNEL.
func TestAvailableAlwaysIncludesScalar(t *testing.T) {
	switch Kernel() {
	case Scalar:
	case AVX2:
		if !HasAVX2() {
			t.Fatal("Kernel() = avx2 on a machine without AVX2")
		}
	case AVX512:
		if !HasAVX512() || !HasAVX2() {
			t.Fatalf("Kernel() = avx512 with HasAVX512() = %v, HasAVX2() = %v", HasAVX512(), HasAVX2())
		}
	default:
		t.Fatalf("Kernel() = %q, want scalar, avx2 or avx512", Kernel())
	}
	if UseAVX2() != (Kernel() == AVX2 || Kernel() == AVX512) {
		t.Fatalf("UseAVX2() = %v with Kernel() = %q", UseAVX2(), Kernel())
	}
	if UseAVX512() != (Kernel() == AVX512) {
		t.Fatalf("UseAVX512() = %v with Kernel() = %q", UseAVX512(), Kernel())
	}
	if HasAVX512() && !HasAVX2() {
		t.Fatal("HasAVX512() without HasAVX2()")
	}
	if want := pick(os.Getenv("PPANNS_KERNEL"), HasAVX2(), HasAVX512()); Kernel() != want {
		t.Fatalf("Kernel() = %q, pick of PPANNS_KERNEL = %q", Kernel(), want)
	}
}

// TestPickHonorsOverride pins the pick table on each kind of host: unset,
// blank and "avx512" select the best variant the host runs, "avx2" the
// AVX2 bodies even where AVX-512 is usable, and "scalar" or any unknown
// name the references. No name selects a variant the host lacks.
func TestPickHonorsOverride(t *testing.T) {
	hosts := []struct {
		name         string
		avx2, avx512 bool
		best, avx2As string
	}{
		{"avx512 host", true, true, AVX512, AVX2},
		{"avx2 host", true, false, AVX2, AVX2},
		{"scalar host", false, false, Scalar, Scalar},
	}
	for _, h := range hosts {
		for _, c := range []struct{ env, want string }{
			{"", h.best},
			{"  ", h.best},
			{"avx512", h.best},
			{" AVX512 ", h.best},
			{"avx2", h.avx2As},
			{"AVX2", h.avx2As},
			{"scalar", Scalar},
			{" SCALAR ", Scalar},
			{"avx-512", Scalar},
			{"no-such-kernel", Scalar},
		} {
			if got := pick(c.env, h.avx2, h.avx512); got != c.want {
				t.Fatalf("%s: pick(%q) = %q, want %q", h.name, c.env, got, c.want)
			}
		}
	}
}
