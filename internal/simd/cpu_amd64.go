//go:build amd64

package simd

// cpuid executes CPUID with the given leaf and subleaf (implemented in
// cpu_amd64.s).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 — the OS-enabled state mask
// (implemented in cpu_amd64.s).
func xgetbv() (eax, edx uint32)

var hasAVX2, hasAVX512 = detect()

// detect performs the full usability check, not just the instruction bits:
// AVX2 kernels touch YMM registers and AVX-512 kernels ZMM and opmask
// registers, which the OS must have opted into saving (OSXSAVE + the XCR0
// state bits) or the first context switch corrupts them. AVX-512F is
// reported only where AVX2 is usable too.
func detect() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27 // OS uses XSAVE/XRSTOR
		avxBit     = 1 << 28 // AVX instruction set
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false, false
	}
	xcr0, _ := xgetbv()
	const (
		ymmState = 0x6  // XMM (bit 1) and YMM (bit 2) state enabled
		zmmState = 0xe6 // and opmask (bit 5), ZMM0–15 upper halves (bit 6), ZMM16–31 (bit 7)
	)
	if xcr0&ymmState != ymmState {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		avx2Bit    = 1 << 5
		avx512fBit = 1 << 16
	)
	avx2 = ebx7&avx2Bit != 0
	avx512 = avx2 && ebx7&avx512fBit != 0 && xcr0&zmmState == zmmState
	return avx2, avx512
}
