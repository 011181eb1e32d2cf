package dce

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ppanns/internal/rng"
	"ppanns/internal/vec"
)

// TestScaleInvariance: keys with different input scales must order any
// candidate set identically — the property that lets the owner normalize
// raw-range data freely.
func TestScaleInvariance(t *testing.T) {
	r := rng.NewSeeded(101)
	dim := 20
	k1, err := KeyGenScaled(rng.Derive(r, 1), dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyGenScaled(rng.Derive(r, 2), dim, 0.01)
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
		a := Closer(k1.Encrypt(o), k1.Encrypt(p), k1.TrapGen(q))
		b := Closer(k2.Encrypt(o), k2.Encrypt(p), k2.TrapGen(q))
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
	k, err := KeyGen(r, dim)
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
		plain := Closer(k.Encrypt(o), k.Encrypt(p), k.TrapGen(q))
		shifted := Closer(
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
	k, err := KeyGen(r, dim)
	if err != nil {
		t.Fatal(err)
	}
	// Two very different plaintexts; their ciphertext component means
	// should both be near zero relative to their spread.
	for _, p := range [][]float64{vec.Ones(dim), vec.Scale(nil, -1, vec.Ones(dim))} {
		ct := k.Encrypt(p)
		var sum, sumSq float64
		for _, v := range ct.P1 {
			sum += v
			sumSq += v * v
		}
		n := float64(len(ct.P1))
		mean := sum / n
		sd := math.Sqrt(sumSq/n - mean*mean)
		if sd == 0 || math.Abs(mean) > sd {
			t.Fatalf("ciphertext component mean %g comparable to spread %g", mean, sd)
		}
	}
}

func TestKeySerializeRoundTrip(t *testing.T) {
	r := rng.NewSeeded(104)
	dim := 12
	k, err := KeyGenScaled(r, dim, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var k2 Key
	if err := k2.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if k2.Dim() != dim || k2.Scale() != 0.5 {
		t.Fatalf("round trip lost header: dim=%d scale=%g", k2.Dim(), k2.Scale())
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
		if Closer(k.Encrypt(o), k2.Encrypt(p), k2.TrapGen(q)) != (do < dp) {
			t.Fatal("cross-key comparison wrong after round trip")
		}
	}
}

// generation1Wire is the key file layout before the query side was folded:
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

func TestKeyDeserializeRejectsGarbage(t *testing.T) {
	k10, err := KeyGen(rng.NewSeeded(105), 10)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := k10.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var valid keyWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&valid); err != nil {
		t.Fatal(err)
	}
	inv1, _ := k10.m1.Inverse()
	inv2, _ := k10.m2.Inverse()
	gen1 := generation1Wire{
		Dim: 10, PadDim: 10, Scale: 1,
		M1: valid.M1, M1Inv: inv1.Raw(), M2: valid.M2, M2Inv: inv2.Raw(),
		Pi1: valid.Pi1, Pi2: valid.Pi2, R1: valid.R1, R2: valid.R2, R3: valid.R3, R4: valid.R4,
		MUp: valid.MUp, MDown: valid.MDown, M3Inv: make([]float64, 36*36),
		KV1: valid.KV1, KV2: valid.KV2, KV3: valid.KV3, KV4: valid.KV4,
	}
	edit := func(f func(w *keyWire)) keyWire {
		w := valid
		f(&w)
		return w
	}
	for _, c := range []struct {
		name string
		wire any    // gob-encoded to make the blob, unless blob is set
		blob []byte // raw input
		want string // substring of the error
	}{
		{name: "junk", blob: []byte("junk"), want: "decoding key"},
		{name: "implausible header", wire: edit(func(w *keyWire) { w.Dim = 0 }), want: "implausible"},
		// A key written before the fold names the fix instead of failing on
		// a matrix length.
		{name: "generation 1 layout", wire: gen1, want: "ppanns-dbtool encrypt"},
		{name: "future generation", wire: edit(func(w *keyWire) { w.Gen = keyGeneration + 1 }), want: "generation"},
		// PadDim must be Dim rounded up to even: a dim-8 header over dim-10
		// matrices would make 36-float tokens a dim-8 server refuses.
		{name: "PadDim lie", wire: edit(func(w *keyWire) { w.Dim = 8 }), want: "implausible"},
		{name: "short query matrix", wire: edit(func(w *keyWire) { w.Query = w.Query[:len(w.Query)-1] }), want: "matrices"},
	} {
		data := c.blob
		if data == nil {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(c.wire); err != nil {
				t.Fatal(err)
			}
			data = buf.Bytes()
		}
		var k Key
		err := k.UnmarshalBinary(data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	// The unedited wire still loads.
	var k Key
	if err := k.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
}
