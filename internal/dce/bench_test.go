package dce

import (
	"fmt"
	"testing"

	"ppanns/internal/rng"
)

// benchSink defeats dead-code elimination of benchmarked comparisons.
var benchSink float64

// scatteredCiphertext rebuilds ct with four separately allocated component
// slices — the pre-arena memory layout, kept here as the benchmark
// baseline the flat store is measured against.
func scatteredCiphertext(ct *Ciphertext) *Ciphertext {
	return &Ciphertext{
		P1: append([]float64(nil), ct.P1...),
		P2: append([]float64(nil), ct.P2...),
		P3: append([]float64(nil), ct.P3...),
		P4: append([]float64(nil), ct.P4...),
	}
}

// naiveDistanceComp is the seed implementation of DistanceComp — a
// straight-line loop with no unrolling — kept as the kernel baseline.
func naiveDistanceComp(co, cp *Ciphertext, tq *Trapdoor) float64 {
	q := tq.Q
	var z float64
	o1, o2 := co.P1, co.P2
	p3, p4 := cp.P3, cp.P4
	for i, qv := range q {
		z += (o1[i]*p3[i] - o2[i]*p4[i]) * qv
	}
	return z
}

// BenchmarkDistanceComp compares one secure comparison across layouts and
// kernels: the seed's naive loop over pointer-per-ciphertext scattered
// components (the old hot path), the unrolled kernel on the same scattered
// layout, and the flat arena store.
func BenchmarkDistanceComp(b *testing.B) {
	for _, dim := range []int{96, 128, 960} {
		r := rng.NewSeeded(41)
		key, err := KeyGen(r, dim)
		if err != nil {
			b.Fatal(err)
		}
		const nPoints = 256 // enough records that repeated pairs don't all sit in L1
		store := NewCiphertextStoreN(key.CiphertextDim(), nPoints)
		scattered := make([]*Ciphertext, nPoints)
		for i := 0; i < nPoints; i++ {
			key.EncryptRecord(rng.Gaussian(r, nil, dim), store.Record(i))
			view := CiphertextFromRecord(store.Record(i))
			scattered[i] = scatteredCiphertext(&view)
		}
		tq := key.TrapGen(rng.Gaussian(r, nil, dim))

		// Every variant accumulates into the sink so the compiler cannot
		// elide the comparison after inlining.
		b.Run(fmt.Sprintf("pointer-naive/d=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			var z float64
			for i := 0; i < b.N; i++ {
				o, p := i%nPoints, (i*7+1)%nPoints
				z += naiveDistanceComp(scattered[o], scattered[p], tq)
			}
			benchSink = z
		})
		b.Run(fmt.Sprintf("pointer/d=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			var z float64
			for i := 0; i < b.N; i++ {
				o, p := i%nPoints, (i*7+1)%nPoints
				z += DistanceComp(scattered[o], scattered[p], tq)
			}
			benchSink = z
		})
		b.Run(fmt.Sprintf("arena/d=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			var z float64
			for i := 0; i < b.N; i++ {
				o, p := i%nPoints, (i*7+1)%nPoints
				z += store.DistanceComp(o, p, tq)
			}
			benchSink = z
		})
	}
}

// BenchmarkDCEKeyGen is the key's set-up at d=960: two 484² inversions, a
// 1936² factorization and the solve for the folded 1936×968 query matrix.
func BenchmarkDCEKeyGen(b *testing.B) {
	b.Run("d=960", func(b *testing.B) {
		r := rng.NewSeeded(44)
		for i := 0; i < b.N; i++ {
			if _, err := KeyGen(r, 960); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncrypt measures per-vector encryption into a fresh ciphertext
// vs in place into an arena record at d=128, and at d=960 bulk encryption
// through one Encryptor in ns per record: one record per call, which
// streams the 30 MB of M₃ for each, against blocks of 16, which stream it
// once for the 16.
func BenchmarkEncrypt(b *testing.B) {
	const dim = 128
	r := rng.NewSeeded(43)
	key, err := KeyGen(r, dim)
	if err != nil {
		b.Fatal(err)
	}
	v := rng.Gaussian(r, nil, dim)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			key.Encrypt(v)
		}
	})
	b.Run("record", func(b *testing.B) {
		rec := make([]float64, 4*key.CiphertextDim())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key.EncryptRecord(v, rec)
		}
	})

	big, err := KeyGen(r, 960)
	if err != nil {
		b.Fatal(err)
	}
	const n = 64
	vecs, recs := make([][]float64, n), make([][]float64, n)
	store := NewCiphertextStoreN(big.CiphertextDim(), n)
	for i := range vecs {
		vecs[i], recs[i] = rng.Gaussian(r, nil, 960), store.Record(i)
	}
	streams := rng.NewStreams(r)
	for _, c := range []struct {
		name  string
		block int
	}{{"d=960/record", 1}, {"d=960/block16", 16}} {
		b.Run(c.name, func(b *testing.B) {
			enc := big.NewEncryptor()
			rs := make([]*rng.Rand, c.block)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += c.block {
				lo := i % n
				for j := range rs {
					rs[j] = streams.At(i + j)
				}
				enc.EncryptRecords(rs, vecs[lo:lo+c.block], recs[lo:lo+c.block])
			}
		})
	}
}
