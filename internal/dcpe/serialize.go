package dcpe

import (
	"fmt"
	"math"

	"ppanns/internal/frame"
	"ppanns/internal/rng"
)

// keyMagic opens the SAP key encoding, generation 1 (earlier builds wrote
// gob). The layout, in the frame package's little-endian encoding:
//
//	magic "SAPKEY01" | d u32 | s f64 | β f64
const keyMagic = "SAPKEY01"

// AppendBinary appends the SAP secret key's encoding to b.
func (k *Key) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, keyMagic...)
	b = frame.AppendU32(b, uint32(k.dim))
	b = frame.AppendF64(b, k.s)
	return frame.AppendF64(b, k.beta), nil
}

// ReadKey decodes a key written by AppendBinary from r. The perturbation
// stream is re-seeded from crypto/rand.
func ReadKey(r *frame.Reader) (*Key, error) {
	if !r.Magic(keyMagic) {
		return nil, fmt.Errorf("dcpe: not a generation-1 SAP key (no %q magic; older builds wrote gob): re-key with ppanns-dbtool encrypt", keyMagic)
	}
	dim, s, beta := int(r.U32()), r.F64(), r.F64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dcpe: decoding key: %w", err)
	}
	if dim <= 0 || !(s > 0) || !(beta >= 0) || math.IsInf(s, 0) || math.IsInf(beta, 0) {
		return nil, fmt.Errorf("dcpe: implausible key dim=%d s=%g beta=%g", dim, s, beta)
	}
	return &Key{s: s, beta: beta, dim: dim, rnd: rng.NewCrypto()}, nil
}
