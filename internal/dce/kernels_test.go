package dce

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"ppanns/internal/rng"
	"ppanns/internal/simd"
	"ppanns/internal/vec"
)

// kernelTestDims covers every loop shape of the comparison kernels: pure
// tail, full groups, group+tail, and the even ctDims real stores produce
// (ctDim = 2·padDim+16 is always even), plus odd sizes for robustness.
var kernelTestDims = []int{1, 3, 7, 8, 9, 15, 16, 17, 48, 63, 64, 100, 208, 401, 960}

// dceULPDiff mirrors internal/vec's ULP metric; every linked variant
// reproduces the scalar summation order and must match at 0 ULP.
func dceULPDiff(a, b float64) uint64 {
	ai, bi := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	if ai < 0 {
		ai = math.MinInt64 - ai
	}
	if bi < 0 {
		bi = math.MinInt64 - bi
	}
	if ai > bi {
		return uint64(ai - bi)
	}
	return uint64(bi - ai)
}

func dceRandFloats(r *rng.Rand, n int, scale float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (r.Float64() - 0.5) * scale
	}
	return out
}

// TestDCEKernelVariantsBitIdentical compares every linked variant's pair
// kernel against the scalar reference across all loop shapes and unaligned
// slice offsets.
func TestDCEKernelVariantsBitIdentical(t *testing.T) {
	r := rng.NewSeeded(431)
	for _, k := range kernelVariants {
		if k.name == simd.Scalar {
			continue
		}
		t.Run(k.name, func(t *testing.T) {
			for _, d := range kernelTestDims {
				for off := 0; off < 4; off++ {
					o1 := dceRandFloats(r, d+off, 20)[off:]
					o2 := dceRandFloats(r, d+off, 20)[off:]
					p3 := dceRandFloats(r, d+off, 20)[off:]
					p4 := dceRandFloats(r, d+off, 20)[off:]
					q := dceRandFloats(r, d+off, 20)[off:]
					want := distCompScalar(o1, o2, p3, p4, q)
					if got := k.distComp(o1, o2, p3, p4, q); dceULPDiff(got, want) > 0 {
						t.Fatalf("distComp d=%d off=%d: %v vs scalar %v", d, off, got, want)
					}
				}
			}
		})
	}
}

// TestDCEKernelDispatchPublicSurface forces each variant through SetKernel
// and drives the public comparison surface — DistanceCompQ, the prepared
// pair path and the cross-store DistanceCompHalves — asserting
// bit-identical results across variants.
func TestDCEKernelDispatchPublicSurface(t *testing.T) {
	prev := ActiveKernel()
	defer SetKernel(prev)
	_, store, _, _, tq := storeWorld(t, 13, 9)
	type obs struct{ pair, prepared, halves float64 }
	observe := func() obs {
		var pq PreparedQuery
		if err := store.PrepareQuery(&pq, tq.Q); err != nil {
			t.Fatal(err)
		}
		return obs{
			pair:     store.DistanceCompQ(1, 6, tq.Q),
			prepared: pq.Comp(3, 5),
			halves:   DistanceCompHalves(store.O12(2), store.P34(8), tq.Q),
		}
	}
	if err := SetKernel(simd.Scalar); err != nil {
		t.Fatal(err)
	}
	want := observe()
	for _, name := range KernelVariants() {
		if err := SetKernel(name); err != nil {
			t.Fatal(err)
		}
		if got := observe(); got != want {
			t.Fatalf("%s: pair/prepared/halves %+v, want %+v", name, got, want)
		}
	}
	if err := SetKernel("no-such-kernel"); err == nil {
		t.Fatal("SetKernel accepted an unknown variant")
	}
}

// TestStoreArenaAlignment pins the layout satellite: the record stride is
// padded to a 64-byte boundary, the arena base is cache-line aligned, so
// every record starts on a cache line; and the padding stays out of the
// wire format (Raw returns the compact logical layout).
func TestStoreArenaAlignment(t *testing.T) {
	for _, dim := range []int{3, 6, 13, 96} {
		r := rng.NewSeeded(uint64(433 + dim))
		k, err := KeyGen(r, dim)
		if err != nil {
			t.Fatal(err)
		}
		store := NewCiphertextStoreN(k.CiphertextDim(), 0)
		for i := 0; i < 5; i++ {
			store.Append(k.Encrypt(rng.Gaussian(r, nil, dim)))
		}
		if store.Stride()%8 != 0 {
			t.Fatalf("dim %d: stride %d not a multiple of 8 floats", dim, store.Stride())
		}
		if store.Stride() != vec.PadStride(4*store.CtDim()) {
			t.Fatalf("dim %d: stride %d, want %d", dim, store.Stride(), vec.PadStride(4*store.CtDim()))
		}
		for id := 0; id < store.Len(); id++ {
			if !vec.Aligned(store.Record(id)) {
				t.Fatalf("dim %d: record %d base not 64-byte aligned", dim, id)
			}
		}
		// The compact wire layout is stride-free: exactly 4·ctDim floats per
		// record, round-tripping through StoreFromRaw bit-for-bit.
		raw := store.Raw()
		if len(raw) != 4*store.CtDim()*store.Len() {
			t.Fatalf("dim %d: Raw len %d, want %d", dim, len(raw), 4*store.CtDim()*store.Len())
		}
		back, err := StoreFromRaw(store.CtDim(), append([]float64(nil), raw...), append([]bool(nil), store.LiveMask()...))
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < store.Len(); id++ {
			a, b := store.Record(id), back.Record(id)
			for c := range a {
				if a[c] != b[c] {
					t.Fatalf("dim %d: record %d differs after raw round trip", dim, id)
				}
			}
		}
	}
}

// TestDCEKernelRegistryShape mirrors internal/vec's registry invariants.
func TestDCEKernelRegistryShape(t *testing.T) {
	names := KernelVariants()
	if len(names) == 0 || names[0] != simd.Scalar {
		t.Fatalf("variants = %v, want scalar first", names)
	}
	if simd.HasAVX2() {
		found := false
		for _, n := range names {
			found = found || n == simd.AVX2
		}
		if !found {
			t.Fatal("CPU supports AVX2 but the variant is not registered")
		}
	}
}

// TestDCESetKernelConcurrent flips dispatch under concurrent comparisons;
// exists for the -race build.
func TestDCESetKernelConcurrent(t *testing.T) {
	prev := ActiveKernel()
	defer SetKernel(prev)
	_, store, _, _, tq := storeWorld(t, 8, 4)
	want := store.DistanceCompQ(0, 3, tq.Q)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := store.DistanceCompQ(0, 3, tq.Q); got != want {
					panic(fmt.Sprintf("dispatch produced %v, want %v", got, want))
				}
			}
		}()
	}
	variants := KernelVariants()
	for i := 0; i < 200; i++ {
		if err := SetKernel(variants[i%len(variants)]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkDistCompKernels measures the pair kernel per variant at the
// paper's padded-SIFT ctDim and a small dimension.
func BenchmarkDistCompKernels(b *testing.B) {
	r := rng.NewSeeded(437)
	for _, d := range []int{96, 208} {
		o1 := dceRandFloats(r, d, 20)
		o2 := dceRandFloats(r, d, 20)
		p3 := dceRandFloats(r, d, 20)
		p4 := dceRandFloats(r, d, 20)
		q := dceRandFloats(r, d, 20)
		for _, k := range kernelVariants {
			b.Run(fmt.Sprintf("%s/d=%d", k.name, d), func(b *testing.B) {
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					sink += k.distComp(o1, o2, p3, p4, q)
				}
				_ = sink
			})
		}
	}
}
