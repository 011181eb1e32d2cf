// Package simd detects the CPU vector features the distance kernels can use
// and resolves, once at init, the one kernel variant every package runs.
//
// The package owns no kernels itself: internal/vec, internal/dce,
// internal/matrix and internal/kmeans keep their assembly next to the
// scalar references they must match bit for bit, and each kernel wrapper branches on UseAVX2 with
// direct calls. There is no runtime switch: the variant is fixed for the
// life of the process by the CPU and the PPANNS_KERNEL environment variable.
//
// Detection is written against raw CPUID/XGETBV (no external cpu-feature
// dependency): AVX2 is reported only when the instruction set is present
// AND the operating system has enabled YMM state saving, so a kernel
// selected here can never fault on a context switch.
package simd

import (
	"os"
	"strings"
)

// Kernel variant names, the vocabulary of PPANNS_KERNEL and of the bench
// reports.
const (
	Scalar = "scalar"
	AVX2   = "avx2"
)

var (
	kernel  = pick(os.Getenv("PPANNS_KERNEL"))
	useAVX2 = kernel == AVX2
)

// HasAVX2 reports whether AVX2 kernels are safe to run: the CPU advertises
// AVX2 and the OS saves YMM state across context switches.
func HasAVX2() bool { return hasAVX2 }

// Kernel returns the variant every kernel runs in this process.
func Kernel() string { return kernel }

// UseAVX2 reports whether the kernels run their AVX2 bodies.
func UseAVX2() bool { return useAVX2 }

// pick resolves a PPANNS_KERNEL value to a variant: unset (or blank) picks
// the best variant this machine runs, "scalar" forces the reference
// kernels, "avx2" requests AVX2 and falls back to scalar where it is
// missing. Any other name means scalar — the escape hatch must never
// select a kernel the machine cannot run.
func pick(env string) string {
	switch strings.ToLower(strings.TrimSpace(env)) {
	case "", AVX2:
		if hasAVX2 {
			return AVX2
		}
		return Scalar
	default:
		return Scalar
	}
}
