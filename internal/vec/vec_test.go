package vec

import (
	"math"
	"testing"
	"testing/quick"

	"ppanns/internal/kerneltest"
	"ppanns/internal/rng"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestSqDistMatchesExpansion(t *testing.T) {
	r := rng.NewSeeded(1)
	// dist(p,q) = ||p||² − 2pᵀq + ||q||², the identity DCE relies on.
	f := func(seed uint64) bool {
		rr := rng.NewSeeded(seed)
		p := rng.Gaussian(rr, nil, 24)
		q := rng.Gaussian(rr, nil, 24)
		lhs := SqDist(p, q)
		rhs := SqNorm(p) - 2*Dot(p, q) + SqNorm(q)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestNorm(t *testing.T) {
	a := []float64{3, 4}
	if got := Norm(a); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Add(nil, a, b); !kerneltest.ApproxEqual(got, []float64{5, 7, 9}, 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Scale(nil, 2, a); !kerneltest.ApproxEqual(got, []float64{2, 4, 6}, 0) {
		t.Fatalf("Scale = %v", got)
	}
	if got := AXPY(nil, 2, a, b); !kerneltest.ApproxEqual(got, []float64{6, 9, 12}, 0) {
		t.Fatalf("AXPY = %v", got)
	}
}

func TestHadamardIdentity6(t *testing.T) {
	// Equation 6 of the paper: 2a+2b = (a+1)◦(b+1) − (a−1)◦(b−1).
	r := rng.NewSeeded(2)
	for trial := 0; trial < 100; trial++ {
		n := 17
		a := rng.Gaussian(r, nil, n)
		b := rng.Gaussian(r, nil, n)
		lhs := Add(nil, Scale(nil, 2, a), Scale(nil, 2, b))
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = (a[i]+1)*(b[i]+1) - (a[i]-1)*(b[i]-1)
		}
		if !kerneltest.ApproxEqual(lhs, rhs, 1e-12) {
			t.Fatalf("identity (6) violated: %v vs %v", lhs, rhs)
		}
	}
}

func TestNormalize(t *testing.T) {
	v := []float64{3, 0, 4}
	Normalize(v)
	if math.Abs(Norm(v)-1) > 1e-15 {
		t.Fatalf("normalized norm = %v", Norm(v))
	}
	z := []float64{0, 0}
	Normalize(z)
	if z[0] != 0 || z[1] != 0 {
		t.Fatal("zero vector changed by Normalize")
	}
}

func TestMaxAbs(t *testing.T) {
	vs := [][]float64{{1, -7, 2}, {3, 4, -5}}
	if got := MaxAbs(vs); got != 7 {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
}

func TestAliasedDst(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	got := Add(a, a, b) // dst aliases a
	if &got[0] != &a[0] || !kerneltest.ApproxEqual(a, []float64{5, 7, 9}, 0) {
		t.Fatalf("aliased Add = %v", a)
	}
}

// referenceSqDist is the straight-line accumulation SqDist had before the
// unrolled kernel, kept as the semantic reference.
func referenceSqDist(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

func TestSqDistMatchesReferenceAssociation(t *testing.T) {
	// The unrolled kernel may associate differently from the straight-line
	// loop, but must stay within a few ULPs of it across dims that cover
	// every unroll tail (0..3 leftover elements).
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 96, 97} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = float64((int64(i)*2654435761)%1000)/997 - 0.5
			b[i] = float64((i*40503+17)%1000)/991 - 0.5
		}
		got := SqDist(a, b)
		want := referenceSqDist(a, b)
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("n=%d: SqDist = %v, reference = %v", n, got, want)
		}
	}
}

func TestSqDistBlockBitIdentical(t *testing.T) {
	for _, dim := range []int{1, 3, 4, 31, 96} {
		ds := newDataset(dim, 8)
		for r := 0; r < 8; r++ {
			v := make([]float64, dim)
			for i := range v {
				v[i] = float64((int64(r)*1315423911+int64(i)*2654435761)%2048)/2047 - 0.5
			}
			ds.Append(v)
		}
		q := make([]float64, dim)
		for i := range q {
			q[i] = float64((i*97+13)%512)/511 - 0.5
		}
		ids := []int32{7, 0, 3, 3, 5}
		dst := ds.SqDistBlock(nil, q, ids)
		if len(dst) != len(ids) {
			t.Fatalf("dim=%d: block returned %d results for %d ids", dim, len(dst), len(ids))
		}
		for j, id := range ids {
			if want := SqDist(q, ds.At(int(id))); dst[j] != want {
				t.Fatalf("dim=%d id=%d: block = %v, scalar = %v (must be bit-identical)", dim, id, dst[j], want)
			}
		}
		// Capacity reuse: a recycled dst must not reallocate.
		dst2 := ds.SqDistBlock(dst[:0], q, ids[:2])
		if &dst2[0] != &dst[0] {
			t.Fatal("SqDistBlock reallocated despite sufficient capacity")
		}
	}
}

func TestSqDistBlockDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newDataset(3, 1).SqDistBlock(nil, []float64{1, 2}, nil)
}
