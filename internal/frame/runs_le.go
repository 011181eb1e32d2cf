//go:build 386 || amd64 || amd64p32 || alpha || arm || arm64 || loong64 || mipsle || mips64le || mips64p32le || nios2 || ppc64le || riscv || riscv64 || sh || wasm

package frame

import "unsafe"

// A little-endian host's memory is the layout, so a run is one copy of
// its bytes; runs_be.go holds every other host's element loops.

func putFloats(p []byte, v []float64) { copy(p, memory(v)) }
func getFloats(v []float64, p []byte) { copy(memory(v), p) }
func putInt32s(p []byte, v []int32)   { copy(p, memory(v)) }
func getInt32s(v []int32, p []byte)   { copy(memory(v), p) }

// memory views v's elements as bytes.
func memory[T float64 | int32](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(*new(T))))
}
