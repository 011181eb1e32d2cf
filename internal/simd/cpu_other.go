//go:build !amd64

package simd

// Non-amd64 builds run the portable scalar kernels; NEON and further ports
// hang their detection here.
var hasAVX2, hasAVX512 = false, false
