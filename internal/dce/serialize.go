package dce

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"ppanns/internal/matrix"
	"ppanns/internal/rng"
)

// keyGeneration stamps the key file layout. Generation 1 had no stamp
// (it decodes as 0) and carried M₁⁻¹, M₂⁻¹ and M₃⁻¹ where generation 2
// carries the folded query matrix; nothing converts one into the other.
const keyGeneration = 2

// keyWire is the serialized form of a Key. Matrices travel as flat
// row-major arrays, permutations as forward maps. Per-encryption randomness
// is re-seeded from crypto/rand on load (it only needs freshness).
type keyWire struct {
	Gen         int
	Dim, PadDim int
	Scale       float64

	M1, M2         []float64
	Pi1, Pi2       []int
	R1, R2, R3, R4 float64

	MUp, MDown         []float64
	KV1, KV2, KV3, KV4 []float64
	Query              []float64
}

// MarshalBinary encodes the secret key. Handle with the same care as the
// key itself.
func (k *Key) MarshalBinary() ([]byte, error) {
	w := keyWire{
		Gen: keyGeneration, Dim: k.dim, PadDim: k.padDim, Scale: k.scale,
		M1: k.m1.Raw(), M2: k.m2.Raw(),
		Pi1: k.pi1.Forward(), Pi2: k.pi2.Forward(),
		R1: k.r1, R2: k.r2, R3: k.r3, R4: k.r4,
		MUp: k.mup.Raw(), MDown: k.mdown.Raw(),
		KV1: k.kv1, KV2: k.kv2, KV3: k.kv3, KV4: k.kv4,
		Query: k.query.Raw(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("dce: encoding key: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a key produced by MarshalBinary. Every shape is
// checked against the header before the key is usable.
func (k *Key) UnmarshalBinary(data []byte) error {
	var w keyWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("dce: decoding key: %w", err)
	}
	if w.Gen != keyGeneration {
		return fmt.Errorf("dce: key file generation %d, this build reads %d: re-key with ppanns-dbtool encrypt", w.Gen, keyGeneration)
	}
	if w.Dim <= 0 || w.PadDim != w.Dim+w.Dim%2 || w.Scale <= 0 {
		return fmt.Errorf("dce: implausible key header dim=%d pad=%d scale=%g", w.Dim, w.PadDim, w.Scale)
	}
	sub := w.PadDim/2 + 4
	bar := w.PadDim + 8
	big := 2*w.PadDim + 16
	var err error
	mk := func(rows, cols int, raw []float64) *matrix.Dense {
		if err != nil {
			return nil
		}
		var m *matrix.Dense
		m, err = matrix.FromRaw(rows, cols, raw)
		return m
	}
	k.dim, k.padDim, k.half, k.scale = w.Dim, w.PadDim, w.PadDim/2, w.Scale
	k.m1 = mk(sub, sub, w.M1)
	k.m2 = mk(sub, sub, w.M2)
	k.mup = mk(bar, big, w.MUp)
	k.mdown = mk(bar, big, w.MDown)
	k.query = mk(big, bar, w.Query)
	if err != nil {
		return fmt.Errorf("dce: decoding key matrices: %w", err)
	}
	if k.pi1, err = rng.PermutationFromForward(w.Pi1); err != nil {
		return fmt.Errorf("dce: decoding π1: %w", err)
	}
	if k.pi2, err = rng.PermutationFromForward(w.Pi2); err != nil {
		return fmt.Errorf("dce: decoding π2: %w", err)
	}
	if k.pi1.Len() != w.PadDim || k.pi2.Len() != bar {
		return fmt.Errorf("dce: permutation sizes %d/%d do not match dims", k.pi1.Len(), k.pi2.Len())
	}
	for _, kv := range [][]float64{w.KV1, w.KV2, w.KV3, w.KV4} {
		if len(kv) != big {
			return fmt.Errorf("dce: key vector of length %d, want %d", len(kv), big)
		}
	}
	k.r1, k.r2, k.r3, k.r4 = w.R1, w.R2, w.R3, w.R4
	k.kv1, k.kv2, k.kv3, k.kv4 = w.KV1, w.KV2, w.KV3, w.KV4
	k.rnd = rng.NewCrypto()
	return nil
}
