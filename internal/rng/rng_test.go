package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := newRand(1, 2)
	b := newRand(1, 2)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestNewSeededDistinct(t *testing.T) {
	a := NewSeeded(1)
	b := NewSeeded(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds coincided %d/64 times", same)
	}
}

func TestNewCryptoProducesOutput(t *testing.T) {
	r := NewCrypto()
	s := NewCrypto()
	if r.Uint64() == s.Uint64() && r.Uint64() == s.Uint64() {
		t.Fatal("two crypto-seeded streams produced identical prefixes")
	}
}

func TestDeriveIndependent(t *testing.T) {
	parent := NewSeeded(7)
	a := Derive(parent, 1)
	b := Derive(parent, 2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams coincided %d/64 times", same)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewSeeded(3)
	for i := 0; i < 1000; i++ {
		v := Uniform(r, -2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform(-2,5) returned %v", v)
		}
	}
}

func TestUniformNonZero(t *testing.T) {
	r := NewSeeded(4)
	pos, neg := 0, 0
	for i := 0; i < 2000; i++ {
		v := UniformNonZero(r, 0.5, 2)
		if a := math.Abs(v); a < 0.5 || a >= 2 {
			t.Fatalf("UniformNonZero magnitude %v outside [0.5,2)", a)
		}
		if v > 0 {
			pos++
		} else {
			neg++
		}
	}
	if pos < 800 || neg < 800 {
		t.Fatalf("sign balance off: %d positive, %d negative", pos, neg)
	}
}

func TestGaussianMoments(t *testing.T) {
	r := NewSeeded(5)
	const n = 200000
	v := Gaussian(r, nil, n)
	var sum, sumSq float64
	for _, x := range v {
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("gaussian mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("gaussian variance %v, want ~1", variance)
	}
}

func TestGaussianReusesDst(t *testing.T) {
	r := NewSeeded(6)
	dst := make([]float64, 8)
	got := Gaussian(r, dst, 8)
	if &got[0] != &dst[0] {
		t.Fatal("Gaussian allocated a new slice despite dst being provided")
	}
}

func TestGaussianVecSigma(t *testing.T) {
	r := NewSeeded(11)
	v := GaussianVec(r, 100000, 3)
	var sumSq float64
	for _, x := range v {
		sumSq += x * x
	}
	if sd := math.Sqrt(sumSq / 100000); math.Abs(sd-3) > 0.1 {
		t.Fatalf("sample sd %v, want ~3", sd)
	}
}

func TestPermutationRoundTrip(t *testing.T) {
	r := NewSeeded(8)
	f := func(seed uint64, size uint8) bool {
		n := int(size%64) + 1
		p := NewPermutation(newRand(seed, 1), n)
		src := Gaussian(r, nil, n)
		permuted := p.Apply(nil, src)
		for i, j := range p.Forward() {
			if permuted[j] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationPreservesDot(t *testing.T) {
	r := NewSeeded(9)
	for trial := 0; trial < 50; trial++ {
		n := 16
		p := NewPermutation(r, n)
		a := Gaussian(r, nil, n)
		b := Gaussian(r, nil, n)
		var dot, dotP float64
		pa := p.Apply(nil, a)
		pb := p.Apply(nil, b)
		for i := 0; i < n; i++ {
			dot += a[i] * b[i]
			dotP += pa[i] * pb[i]
		}
		if math.Abs(dot-dotP) > 1e-12*math.Abs(dot)+1e-12 {
			t.Fatalf("permutation changed dot product: %v vs %v", dot, dotP)
		}
	}
}

func TestIdentityPermutation(t *testing.T) {
	p, err := PermutationFromForward([]int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	src := []float64{1, 2, 3, 4, 5}
	got := p.Apply(nil, src)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("identity permutation moved element %d", i)
		}
	}
}

func TestPermutationFromForward(t *testing.T) {
	p, err := PermutationFromForward([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	src := []float64{10, 20, 30}
	got := p.Apply(nil, src)
	want := []float64{20, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("apply = %v, want %v", got, want)
		}
	}
	if _, err := PermutationFromForward([]int{0, 0, 1}); err == nil {
		t.Fatal("expected error for non-bijective forward map")
	}
	if _, err := PermutationFromForward([]int{0, 3, 1}); err == nil {
		t.Fatal("expected error for out-of-range forward map")
	}
}

func TestPermutationSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	p := NewPermutation(NewSeeded(1), 3)
	p.Apply(nil, []float64{1, 2})
}

// TestStreams: stream i is a function of the base and i, the same from At
// and from First, and no two streams of a family start alike.
func TestStreams(t *testing.T) {
	a, b := NewStreams(NewSeeded(5)), NewStreams(NewSeeded(5)).First(2000)
	seen := map[uint64]int{}
	for i := 0; i < 2000; i++ {
		x, y := a.At(i), b[i]
		first := x.Uint64()
		if first != y.Uint64() || x.Uint64() != y.Uint64() {
			t.Fatalf("stream %d is not a function of (base, index)", i)
		}
		if j, dup := seen[first]; dup {
			t.Fatalf("streams %d and %d start alike", j, i)
		}
		seen[first] = i
	}
	r := NewSeeded(6)
	if NewStreams(r).At(0).Uint64() == NewStreams(r).At(0).Uint64() {
		t.Fatal("two families drawn from one parent coincide")
	}
}
