// Package rng provides the deterministic and cryptographically seeded
// randomness used across the library: independent PCG streams, Gaussian and
// ball sampling, and invertible random permutations.
//
// Every scheme in this module (DCE, DCPE, ASPE, AME, LSH, HNSW level
// assignment) consumes randomness through this package so that experiments
// are reproducible from a single seed while production key generation can be
// seeded from crypto/rand.
package rng

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	mrand "math/rand/v2"
)

// Rand is the concrete random stream type used throughout the library.
type Rand = mrand.Rand

// newRand returns a deterministic PCG-backed random stream for the given seed
// pair. Two streams created with the same seeds yield identical sequences.
func newRand(seed1, seed2 uint64) *Rand {
	return mrand.New(mrand.NewPCG(seed1, seed2))
}

// NewSeeded returns a stream derived from a single seed. The second PCG word
// is a fixed golden-ratio constant so distinct seeds yield distinct streams.
func NewSeeded(seed uint64) *Rand {
	return newRand(seed, 0x9e3779b97f4a7c15)
}

// NewCrypto returns a random stream seeded from the operating system CSPRNG.
// It is the default for key generation outside of tests.
func NewCrypto() *Rand {
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand failing means the platform entropy source is broken;
		// there is no meaningful way to continue generating keys.
		panic(fmt.Sprintf("rng: crypto seed unavailable: %v", err))
	}
	return newRand(binary.LittleEndian.Uint64(buf[:8]), binary.LittleEndian.Uint64(buf[8:]))
}

// Derive returns a new independent stream deterministically derived from the
// parent stream and a label. It is used to hand independent randomness to
// sub-components (e.g. one stream per key matrix) without coupling their
// consumption patterns.
func Derive(r *Rand, label uint64) *Rand {
	return newRand(r.Uint64()^label, r.Uint64()+label)
}

// Streams is a family of independent streams indexed by an integer and
// fixed by one base drawn from a parent stream. Work that is spread over a
// varying number of workers takes stream i for item i, so what item i draws
// depends on the parent's state and on i — never on which worker reached it
// or when.
type Streams struct{ s1, s2 uint64 }

// NewStreams draws the base of a stream family from r.
func NewStreams(r *Rand) Streams {
	return Streams{s1: r.Uint64(), s2: r.Uint64()}
}

// At returns stream i of the family.
func (s Streams) At(i int) *Rand {
	return newRand(s.seeds(i))
}

// First returns streams 0 to n−1 of the family, stream i as At(i) would
// return it. Their states take three allocations rather than 2n small
// ones, so a caller that holds them while other work allocates leaves no
// half-empty small-object spans behind when it lets them go.
func (s Streams) First(n int) []*Rand {
	pcgs, rands, out := make([]mrand.PCG, n), make([]mrand.Rand, n), make([]*Rand, n)
	for i := range out {
		pcgs[i].Seed(s.seeds(i))
		rands[i] = *mrand.New(&pcgs[i])
		out[i] = &rands[i]
	}
	return out
}

// seeds returns the PCG seeds of stream i.
func (s Streams) seeds(i int) (uint64, uint64) {
	return s.s1 ^ mix64(uint64(i)), s.s2 + mix64(^uint64(i))
}

// mix64 is the splitmix64 finalizer: a bijection that spreads consecutive
// indexes over the whole word, so neighboring streams start far apart in
// the generator's state space.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uniform returns a float64 uniformly distributed in [lo, hi). The product
// is rounded on its own before the sum (the float64 conversion forbids a
// fused multiply-add), so a seed draws the same bits on every architecture.
func Uniform(r *Rand, lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// UniformNonZero returns a float64 uniformly distributed over
// ±[lo, hi) — bounded away from zero with a random sign. DCE's key vectors
// are sampled this way so that element-wise division stays well conditioned.
func UniformNonZero(r *Rand, lo, hi float64) float64 {
	v := Uniform(r, lo, hi)
	if r.Uint64()&1 == 0 {
		return -v
	}
	return v
}

// Gaussian fills dst with independent N(0,1) samples and returns it.
// If dst is nil a new slice of length n is allocated.
func Gaussian(r *Rand, dst []float64, n int) []float64 {
	if dst == nil {
		dst = make([]float64, n)
	}
	for i := range dst[:n] {
		dst[i] = r.NormFloat64()
	}
	return dst[:n]
}

// GaussianVec returns a fresh vector of n independent N(0, sigma²) samples.
func GaussianVec(r *Rand, n int, sigma float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64() * sigma
	}
	return v
}

// Permutation is a permutation of {0..n-1}, applied in O(n).
type Permutation struct {
	fwd []int // fwd[i] = destination index of source element i
}

// NewPermutation samples a uniformly random permutation of size n.
func NewPermutation(r *Rand, n int) *Permutation {
	return &Permutation{fwd: r.Perm(n)}
}

// Len returns the permutation size.
func (p *Permutation) Len() int { return len(p.fwd) }

// Apply writes src permuted into dst (dst[fwd[i]] = src[i]) and returns dst.
// dst may be nil, in which case a new slice is allocated. dst must not alias
// src.
func (p *Permutation) Apply(dst, src []float64) []float64 {
	if len(src) != len(p.fwd) {
		panic(fmt.Sprintf("rng: permutation size %d applied to vector of size %d", len(p.fwd), len(src)))
	}
	if dst == nil {
		dst = make([]float64, len(src))
	}
	for i, j := range p.fwd {
		dst[j] = src[i]
	}
	return dst
}

// Forward returns the underlying forward mapping (read-only).
func (p *Permutation) Forward() []int { return p.fwd }

// PermutationFromForward reconstructs a Permutation from a forward mapping,
// validating that it is a bijection. Used when deserializing keys.
func PermutationFromForward(fwd []int) (*Permutation, error) {
	seen := make([]bool, len(fwd))
	for i, j := range fwd {
		if j < 0 || j >= len(fwd) || seen[j] {
			return nil, fmt.Errorf("rng: invalid permutation: element %d maps to %d", i, j)
		}
		seen[j] = true
	}
	return &Permutation{fwd: append([]int(nil), fwd...)}, nil
}
