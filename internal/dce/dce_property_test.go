package dce

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ppanns/internal/frame"
	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// TestScaleInvariance: keys with different input scales must order any
// candidate set identically — the property that lets the owner normalize
// raw-range data freely.
func TestScaleInvariance(t *testing.T) {
	r := rng.NewSeeded(101)
	dim := 20
	k1, err := KeyGen(rng.Derive(r, 1), dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyGen(rng.Derive(r, 2), dim, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		o := rng.GaussianVec(r, dim, 50)
		p := rng.GaussianVec(r, dim, 50)
		q := rng.GaussianVec(r, dim, 50)
		do, dp := vec.SqDist(o, q), vec.SqDist(p, q)
		if math.Abs(do-dp) <= 1e-9*(do+dp+1) {
			continue
		}
		a := closer(k1.Encrypt(o), k1.Encrypt(p), k1.TrapGen(q))
		b := closer(k2.Encrypt(o), k2.Encrypt(p), k2.TrapGen(q))
		if a != b {
			t.Fatalf("scale changed a comparison outcome (trial %d)", trial)
		}
	}
}

// TestTranslationConsistency: shifting all vectors by a constant offset
// shifts both distances equally, so comparisons must be unchanged.
func TestTranslationConsistency(t *testing.T) {
	r := rng.NewSeeded(102)
	dim := 16
	k, err := KeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	offset := rng.Gaussian(r, nil, dim)
	f := func(seed uint64) bool {
		rr := rng.NewSeeded(seed)
		o := rng.Gaussian(rr, nil, dim)
		p := rng.Gaussian(rr, nil, dim)
		q := rng.Gaussian(rr, nil, dim)
		do, dp := vec.SqDist(o, q), vec.SqDist(p, q)
		if math.Abs(do-dp) <= 1e-9*(do+dp+1) {
			return true
		}
		plain := closer(k.Encrypt(o), k.Encrypt(p), k.TrapGen(q))
		shifted := closer(
			k.Encrypt(vec.Add(nil, o, offset)),
			k.Encrypt(vec.Add(nil, p, offset)),
			k.TrapGen(vec.Add(nil, q, offset)))
		return plain == shifted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCiphertextStatistics: ciphertext components must not correlate with
// the plaintext coordinate signs — a cheap smoke test of the
// randomization phases.
func TestCiphertextStatistics(t *testing.T) {
	r := rng.NewSeeded(103)
	dim := 16
	k, err := KeyGen(r, dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two very different plaintexts; their ciphertext component means
	// should both be near zero relative to their spread.
	for _, p := range [][]float64{slices.Repeat([]float64{1}, dim), vec.Scale(nil, -1, slices.Repeat([]float64{1}, dim))} {
		ct := k.Encrypt(p)
		var sum, sumSq float64
		p1 := ct[:k.CiphertextDim()]
		for _, v := range p1 {
			sum += v
			sumSq += v * v
		}
		n := float64(len(p1))
		mean := sum / n
		sd := math.Sqrt(sumSq/n - mean*mean)
		if sd == 0 || math.Abs(mean) > sd {
			t.Fatalf("ciphertext component mean %g comparable to spread %g", mean, sd)
		}
	}
}

// decodeKey is ReadKey over a whole encoding.
func decodeKey(data []byte) (*Key, error) {
	r := frame.NewReader(data)
	k, err := ReadKey(r)
	if err != nil {
		return nil, err
	}
	return k, r.Done()
}

func TestKeySerializeRoundTrip(t *testing.T) {
	r := rng.NewSeeded(104)
	for _, dim := range []int{12, 7} {
		k, err := KeyGen(r, dim, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := k.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := decodeKey(blob)
		if err != nil {
			t.Fatal(err)
		}
		if k2.Dim() != dim || k2.scale != 0.5 {
			t.Fatalf("round trip lost header: dim=%d scale=%g", k2.Dim(), k2.scale)
		}
		if again, _ := k2.AppendBinary(nil); !bytes.Equal(again, blob) {
			t.Fatal("a reloaded key encodes differently")
		}
		// Drawing from the same stream, the reloaded key's trapdoors and
		// ciphertexts are the in-memory key's, bit for bit.
		k.rnd, k2.rnd = rng.NewSeeded(9), rng.NewSeeded(9)
		for trial := 0; trial < 5; trial++ {
			v := rng.Gaussian(r, nil, dim)
			a, b := k.TrapGen(v).Q, k2.TrapGen(v).Q
			c1, c2 := k.Encrypt(v), k2.Encrypt(v)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("dim %d: trapdoor coordinate %d differs after a round trip", dim, i)
				}
			}
			for i := range c1 {
				if c1[i] != c2[i] {
					t.Fatalf("dim %d: ciphertext coordinate %d differs after a round trip", dim, i)
				}
			}
		}
		// Cross-compatibility: ciphertexts from k compare correctly against
		// trapdoors from k2 and vice versa.
		for trial := 0; trial < 30; trial++ {
			o := rng.Gaussian(r, nil, dim)
			p := rng.Gaussian(r, nil, dim)
			q := rng.Gaussian(r, nil, dim)
			do, dp := vec.SqDist(o, q), vec.SqDist(p, q)
			if math.Abs(do-dp) <= 1e-9*(do+dp+1) {
				continue
			}
			if closer(k.Encrypt(o), k2.Encrypt(p), k2.TrapGen(q)) != (do < dp) {
				t.Fatal("cross-key comparison wrong after round trip")
			}
		}
	}
}

// generation1Wire is the gob key layout before the query side was folded:
// no generation stamp, and M₁⁻¹, M₂⁻¹ and M₃⁻¹ beside everything else.
type generation1Wire struct {
	Dim, PadDim int
	Scale       float64

	M1, M1Inv, M2, M2Inv []float64
	Pi1, Pi2             []int
	R1, R2, R3, R4       float64

	MUp, MDown, M3Inv  []float64
	KV1, KV2, KV3, KV4 []float64
}

// generation2Wire is the last gob key layout, stamped with generation 2.
type generation2Wire struct {
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

func TestKeyDeserializeRejectsGarbage(t *testing.T) {
	k10, err := KeyGen(rng.NewSeeded(105), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := k10.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	gobBytes := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	inv1, _ := k10.m1.Inverse()
	inv2, _ := k10.m2.Inverse()
	gen1 := generation1Wire{
		Dim: 10, PadDim: 10, Scale: 1,
		M1: k10.m1.Raw(), M1Inv: inv1.Raw(), M2: k10.m2.Raw(), M2Inv: inv2.Raw(),
		Pi1: k10.pi1.Forward(), Pi2: k10.pi2.Forward(), R1: k10.r1, R2: k10.r2, R3: k10.r3, R4: k10.r4,
		MUp: k10.mup.Raw(), MDown: k10.mdown.Raw(), M3Inv: make([]float64, 36*36),
		KV1: k10.kv1, KV2: k10.kv2, KV3: k10.kv3, KV4: k10.kv4,
	}
	gen2 := generation2Wire{
		Gen: 2, Dim: 10, PadDim: 10, Scale: 1,
		M1: k10.m1.Raw(), M2: k10.m2.Raw(),
		Pi1: k10.pi1.Forward(), Pi2: k10.pi2.Forward(), R1: k10.r1, R2: k10.r2, R3: k10.r3, R4: k10.r4,
		MUp: k10.mup.Raw(), MDown: k10.mdown.Raw(),
		KV1: k10.kv1, KV2: k10.kv2, KV3: k10.kv3, KV4: k10.kv4, Query: k10.query.Raw(),
	}
	// edit returns a copy of the valid encoding with f applied.
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), blob...)) }
	const dimAt, pi1At = len(keyMagic), len(keyMagic) + 4 + 5*8
	for _, c := range []struct {
		name string
		blob []byte
		want string // substring of the error
	}{
		{name: "junk", blob: []byte("junk"), want: "re-key with ppanns-dbtool encrypt"},
		// Keys written by the gob builds name the fix instead of failing
		// on a length.
		{name: "generation 1 layout", blob: gobBytes(gen1), want: "re-key with ppanns-dbtool encrypt"},
		{name: "generation 2 layout", blob: gobBytes(gen2), want: "re-key with ppanns-dbtool encrypt"},
		{name: "future generation", blob: edit(func(b []byte) []byte { b[len(keyMagic)-1]++; return b }), want: "re-key with ppanns-dbtool encrypt"},
		{name: "implausible header", blob: edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[dimAt:], 0); return b }), want: "implausible"},
		// The dimension sizes every run: under a smaller one π₁ reads as
		// no permutation, a larger one runs out of bytes.
		{name: "dim lie down", blob: edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[dimAt:], 8); return b }), want: "invalid permutation"},
		{name: "dim lie up", blob: edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[dimAt:], 12); return b }), want: "truncated"},
		// A dimension whose matrices exceed the limit is refused before
		// anything is sized by it.
		{name: "huge dim", blob: edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[dimAt:], 1<<20); return b }), want: "truncated"},
		{name: "short query matrix", blob: blob[:len(blob)-8], want: "truncated"},
		{name: "bad permutation", blob: edit(func(b []byte) []byte { copy(b[pi1At:pi1At+4], b[pi1At+4:pi1At+8]); return b }), want: "π1"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeKey(c.blob)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(c.blob))+64<<10 {
			t.Errorf("%s: refusing a %d-byte key allocated %d bytes", c.name, len(c.blob), got)
		}
	}
	// The unedited encoding still loads.
	if _, err := decodeKey(blob); err != nil {
		t.Fatal(err)
	}
}
