package dce

import (
	"fmt"
	"testing"

	"ppanns/internal/rng"
)

// benchSink defeats dead-code elimination of benchmarked comparisons.
var benchSink float64

// BenchmarkDistanceComp times one secure comparison between two records of
// the flat arena store.
func BenchmarkDistanceComp(b *testing.B) {
	for _, dim := range []int{96, 128, 960} {
		r := rng.NewSeeded(41)
		key, err := KeyGen(r, dim, 1)
		if err != nil {
			b.Fatal(err)
		}
		const nPoints = 256 // enough records that repeated pairs don't all sit in L1
		store := NewCiphertextStoreN(key.CiphertextDim(), nPoints)
		for i := 0; i < nPoints; i++ {
			copy(store.Record(i), key.Encrypt(rng.Gaussian(r, nil, dim)))
		}
		tq := key.TrapGen(rng.Gaussian(r, nil, dim))

		// The sum goes to the sink so the compiler cannot elide the
		// comparison after inlining.
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
			if _, err := KeyGen(r, 960, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncrypt measures per-vector encryption into a fresh record at
// d=128, and at d=960 bulk encryption through one Encryptor: one record per
// call, which streams the 30 MB of M₃ for each, against blocks of 16, which
// stream it once for the 16. At d=960 an op is one call (a whole block),
// and ns/record is the time per record at any b.N.
func BenchmarkEncrypt(b *testing.B) {
	const dim = 128
	r := rng.NewSeeded(43)
	key, err := KeyGen(r, dim, 1)
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

	big, err := KeyGen(r, 960, 1)
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
			for i := 0; i < b.N; i++ {
				lo := i * c.block % n
				for j := range rs {
					rs[j] = streams.At(i*c.block + j)
				}
				enc.EncryptRecords(rs, vecs[lo:lo+c.block], recs[lo:lo+c.block])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.block), "ns/record")
		})
	}
}
