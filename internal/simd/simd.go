// Package simd detects the CPU vector features the distance kernels can use
// and resolves, once at init, the one kernel variant every package runs.
//
// The package owns no kernels itself: internal/vec, internal/dce,
// internal/matrix and internal/kmeans keep their assembly next to the
// scalar references they must match bit for bit, and each kernel wrapper
// branches on UseAVX512 and UseAVX2 with direct calls. There is no runtime
// switch: the variant is fixed for the life of the process by the CPU and
// the PPANNS_KERNEL environment variable.
//
// The variants are ordered scalar < avx2 < avx512, each running every body
// of the one below it that it has no body of its own for. Under avx512
// UseAVX2 stays true, so the three kernels with a 512-bit body — matrix's
// four-destination panel under every dense product, kmeans' block kernel
// under PQ training, PQ encoding and k-means++ on short rows, and vec's
// block distance kernel under every graph hop and list scan — run it, and
// every other kernel runs its AVX2 body. The one-row loops of vec and dce
// wait on their add chains, not on instruction throughput, so a wider
// register alone would not speed them up; vec's block body gains by
// keeping four rows, four add chains, in flight.
//
// Detection is written against raw CPUID/XGETBV (no external cpu-feature
// dependency): a variant is reported only when the instruction set is
// present AND the operating system has enabled saving the registers it
// touches (YMM state for AVX2; opmask and ZMM state for AVX-512F), so a
// kernel selected here can never fault on a context switch.
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
	AVX512 = "avx512"
)

var (
	kernel    = pick(os.Getenv("PPANNS_KERNEL"), hasAVX2, hasAVX512)
	useAVX2   = kernel == AVX2 || kernel == AVX512
	useAVX512 = kernel == AVX512
)

// HasAVX2 reports whether AVX2 kernels are safe to run: the CPU advertises
// AVX2 and the OS saves YMM state across context switches.
func HasAVX2() bool { return hasAVX2 }

// HasAVX512 reports whether AVX-512F kernels are safe to run: AVX2 is
// usable, the CPU advertises AVX-512F and the OS saves opmask and ZMM state
// across context switches.
func HasAVX512() bool { return hasAVX512 }

// Kernel returns the variant every kernel runs in this process.
func Kernel() string { return kernel }

// UseAVX2 reports whether the kernels run their AVX2 bodies: true under
// avx2 and under avx512, where every kernel without a 512-bit body keeps
// its AVX2 one.
func UseAVX2() bool { return useAVX2 }

// UseAVX512 reports whether the kernels that have a 512-bit body run it.
func UseAVX512() bool { return useAVX512 }

// pick resolves a PPANNS_KERNEL value to a variant on a machine with the
// given usable features: unset (or blank) and "avx512" pick the best
// variant the machine runs, "avx2" the AVX2 bodies (scalar where AVX2 is
// missing), "scalar" the reference kernels. Any other name means scalar —
// the escape hatch must never select a kernel the machine cannot run.
func pick(env string, avx2, avx512 bool) string {
	switch strings.ToLower(strings.TrimSpace(env)) {
	case "", AVX512:
		if avx512 {
			return AVX512
		}
		fallthrough
	case AVX2:
		if avx2 {
			return AVX2
		}
		return Scalar
	default:
		return Scalar
	}
}
