//go:build !(386 || amd64 || amd64p32 || alpha || arm || arm64 || loong64 || mipsle || mips64le || mips64p32le || nios2 || ppc64le || riscv || riscv64 || sh || wasm)

package frame

import (
	"encoding/binary"
	"math"
)

// Element by element, into the bytes runs_le.go copies; p holds len(v) items.

func putFloats(p []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(x))
	}
}

func getFloats(v []float64, p []byte) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

func putInt32s(p []byte, v []int32) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(p[4*i:], uint32(x))
	}
}

func getInt32s(v []int32, p []byte) {
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
}
