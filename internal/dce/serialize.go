package dce

import (
	"fmt"
	"math"

	"ppanns/internal/frame"
	"ppanns/internal/matrix"
	"ppanns/internal/rng"
)

// keyMagic opens a key encoding and names its generation: 1 and 2 were gob
// (1 carried M₁⁻¹, M₂⁻¹ and M₃⁻¹ where 2 carries the folded query matrix),
// 3 is the layout below. Nothing converts one generation into another.
//
// With p = d rounded up to even, s = p/2+4, b = p+8 and B = 2p+16, all in
// the frame package's little-endian encoding:
//
//	magic "DCEKEY03" | d u32 | scale f64 | r₁ r₂ r₃ r₄ f64
//	π₁ forward map: p × u32 | π₂ forward map: b × u32
//	M₁, M₂: s×s f64 each | M_up, M_down: b×B f64 each
//	kv₁ kv₂ kv₃ kv₄: B f64 each | Q: B×b f64
//
// Every size follows from d, so the encoding carries no other length.
// Per-encryption randomness is re-seeded from crypto/rand on load (it only
// needs freshness).
const keyMagic = "DCEKEY03"

// keyShape returns p, s, b and B for a d-dimensional key.
func keyShape(dim int) (pad, sub, bar, big int) {
	pad = dim + dim%2
	return pad, pad/2 + 4, pad + 8, CiphertextDim(dim)
}

// AppendBinary appends the secret key's encoding to b. Handle the bytes
// with the same care as the key itself.
func (k *Key) AppendBinary(b []byte) ([]byte, error) {
	pad, sub, bar, big := keyShape(k.dim)
	if 8*bar*big > frame.MaxLen {
		return nil, fmt.Errorf("dce: a %d-dim key's %d-byte matrices exceed the %d-byte key file limit", k.dim, 8*bar*big, frame.MaxLen)
	}
	size := len(keyMagic) + 4 + 5*8 + 4*(pad+bar) + 8*(2*sub*sub+3*bar*big+4*big)
	b = append(append(make([]byte, 0, len(b)+size), b...), keyMagic...)
	b = frame.AppendU32(b, uint32(k.dim))
	for _, x := range []float64{k.scale, k.r1, k.r2, k.r3, k.r4} {
		b = frame.AppendF64(b, x)
	}
	for _, p := range []*rng.Permutation{k.pi1, k.pi2} {
		for _, j := range p.Forward() {
			b = frame.AppendU32(b, uint32(j))
		}
	}
	for _, run := range [][]float64{k.m1.Raw(), k.m2.Raw(), k.mup.Raw(), k.mdown.Raw(), k.kv1, k.kv2, k.kv3, k.kv4, k.query.Raw()} {
		b = frame.AppendFloatRun(b, run)
	}
	return b, nil
}

// ReadKey decodes a key written by AppendBinary from r. The bytes are
// untrusted: the dimension is checked before it sizes anything, and every
// run it sizes is held to the bytes that remain before it is allocated.
func ReadKey(r *frame.Reader) (*Key, error) {
	if !r.Magic(keyMagic) {
		return nil, fmt.Errorf("dce: not a generation-3 key (no %q magic; older builds wrote gob): re-key with ppanns-dbtool encrypt", keyMagic)
	}
	dim := int(r.U32())
	scale := r.F64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dce: decoding key: %w", err)
	}
	if dim <= 0 || dim > frame.MaxLen || !(scale > 0) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("dce: implausible key header dim=%d scale=%g", dim, scale)
	}
	pad, sub, bar, big := keyShape(dim)
	k := &Key{dim: dim, padDim: pad, half: pad / 2, scale: scale}
	k.r1, k.r2, k.r3, k.r4 = r.F64(), r.F64(), r.F64(), r.F64()
	fwd1, fwd2 := readForward(r, pad), readForward(r, bar)
	m1, m2 := r.FloatRun(sub*sub), r.FloatRun(sub*sub)
	mup, mdown := r.FloatRun(bar*big), r.FloatRun(bar*big)
	k.kv1, k.kv2, k.kv3, k.kv4 = r.FloatRun(big), r.FloatRun(big), r.FloatRun(big), r.FloatRun(big)
	query := r.FloatRun(big * bar)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dce: decoding %d-dim key: %w", dim, err)
	}
	// The runs were read to their exact sizes, so FromRaw cannot fail.
	k.m1, _ = matrix.FromRaw(sub, sub, m1)
	k.m2, _ = matrix.FromRaw(sub, sub, m2)
	k.mup, _ = matrix.FromRaw(bar, big, mup)
	k.mdown, _ = matrix.FromRaw(bar, big, mdown)
	k.query, _ = matrix.FromRaw(big, bar, query)
	var err error
	if k.pi1, err = rng.PermutationFromForward(fwd1); err != nil {
		return nil, fmt.Errorf("dce: decoding π1: %w", err)
	}
	if k.pi2, err = rng.PermutationFromForward(fwd2); err != nil {
		return nil, fmt.Errorf("dce: decoding π2: %w", err)
	}
	k.rnd = rng.NewCrypto()
	return k, nil
}

// readForward reads a permutation's n-entry forward map of u32s.
func readForward(r *frame.Reader, n int) []int {
	if !r.Want(n, 4) {
		return nil
	}
	fwd := make([]int, n)
	for i := range fwd {
		fwd[i] = int(r.U32())
	}
	return fwd
}
