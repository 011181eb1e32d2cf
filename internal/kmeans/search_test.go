package kmeans

import (
	"encoding/binary"
	"math"
	"testing"

	"ppanns/internal/rng"
)

// checkNearest compares the pruned search with the full scan on index and
// distance bits, from every guess in guesses.
func checkNearest(t *testing.T, cents []float64, w int, v []float64, guesses ...int) {
	t.Helper()
	s := NewSearcher(cents, w)
	wantI, wantD := NearestFlat(cents, w, v)
	for _, g := range guesses {
		gotI, gotD := s.Nearest(v, g)
		if gotI != wantI || math.Float64bits(gotD) != math.Float64bits(wantD) {
			t.Fatalf("w=%d k=%d guess %d, point %v: pruned (%d, %v), full scan (%d, %v)",
				w, len(cents)/w, g, v, gotI, gotD, wantI, wantD)
		}
	}
}

// TestNearestMatchesFlat: from any starting guess the pruned search returns
// the full scan's index and distance bits — on clustered and on unclustered
// centroids (where nothing can be ruled out and the walk is the whole list),
// with duplicate centroids, points equal to a centroid and exact ties, which
// go to the lowest index in both.
func TestNearestMatchesFlat(t *testing.T) {
	r := rng.NewSeeded(31)
	for _, w := range []int{1, 3, 7, 8, 96} {
		for _, k := range []int{1, 2, 5, 40, 256} {
			for _, spread := range []float64{1, 50} {
				// k centroids around k/8+1 centres: spread 50 separates the
				// groups by far more than their width, spread 1 not at all.
				centres := rng.Gaussian(r, nil, (k/8+1)*w)
				cents := rng.Gaussian(r, nil, k*w)
				for c := 0; c < k; c++ {
					g := r.IntN(k/8 + 1)
					for i := 0; i < w; i++ {
						cents[c*w+i] += spread * centres[g*w+i]
					}
				}
				if k >= 5 {
					copy(cents[4*w:5*w], cents[1*w:2*w]) // duplicates
					copy(cents[2*w:3*w], cents[1*w:2*w])
				}
				guesses := []int{0, k - 1, k / 2, r.IntN(k)}
				for trial := 0; trial < 40; trial++ {
					v := rng.Gaussian(r, nil, w)
					c := r.IntN(k)
					for i := range v {
						v[i] += cents[c*w+i]
					}
					switch {
					case trial%4 == 1:
						copy(v, cents[c*w:(c+1)*w]) // on a centroid: distance 0
					case trial%4 == 2 && k >= 5:
						copy(v, cents[1*w:2*w]) // on three at once
					case trial%4 == 3 && k >= 2:
						for i := range v { // exactly between rows k-1 and 0
							cents[i], cents[(k-1)*w+i] = v[i]+1, v[i]-1
						}
					}
					checkNearest(t, cents, w, v, guesses...)
				}
			}
		}
	}
}

// TestNearestNonFinite states what happens off the finite floats: a point
// (or a guess) whose distance is NaN or +Inf gets the full scan, and a
// centroid that is not finite is never nearer than one that is — so the
// answer is NearestFlat's whatever the coordinates hold, and so it is where
// differences are so small that their squares underflow.
func TestNearestNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range []int{1, 3, 8} {
		r := rng.NewSeeded(uint64(w))
		for _, bad := range []float64{nan, inf, -inf, 1e200, -1e200, 1e-170, 5e-324} {
			const k = 9
			cents := rng.Gaussian(r, nil, k*w)
			v := rng.Gaussian(r, nil, w)
			all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
			checkNearest(t, cents, w, v, all...)

			poisoned := append([]float64(nil), cents...)
			poisoned[3*w] = bad
			poisoned[7*w+w-1] = bad
			checkNearest(t, poisoned, w, v, all...)

			pv := append([]float64(nil), v...)
			pv[w-1] = bad
			checkNearest(t, cents, w, pv, all...)
			checkNearest(t, poisoned, w, pv, all...)

			// Everything within a few denormals of everything else.
			tiny := make([]float64, k*w)
			for i := range tiny {
				tiny[i] = float64(r.IntN(5)) * 2e-162
			}
			checkNearest(t, tiny, w, tiny[4*w:5*w], all...)
			checkNearest(t, tiny, w, make([]float64, w), all...)
		}
	}
}

// FuzzNearestMatchesFlat drives the same comparison from raw bytes: the
// centroids and the point are whatever float64s the bytes spell (NaNs,
// infinities and denormals included), snapped to a coarse grid on request
// so that duplicates and exact ties are common.
func FuzzNearestMatchesFlat(f *testing.F) {
	seedBytes := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(0), uint8(2), uint16(0), false, seedBytes(0.5, 0, 1, 1, 0, 0))
	f.Add(uint8(1), uint8(1), uint16(3), true, seedBytes(1, 2, 3, 1, 2, 3, 4, 5, 6, 4, 5, 6, 2.5, 3.5, 4.5))
	f.Add(uint8(3), uint8(2), uint16(1), false, seedBytes(math.NaN(), math.Inf(1), 5e-324, 1e200, -1e200, 7, 8, 9, 1, 2))
	f.Add(uint8(4), uint8(0), uint16(0), true, make([]byte, 97*8))
	f.Fuzz(func(t *testing.T, wSel, kSel uint8, guess uint16, snap bool, raw []byte) {
		w := []int{1, 3, 7, 8, 96}[int(wSel)%5]
		k := []int{1, 2, 256}[int(kSel)%3]
		// The point, then the centroids, cycling through the bytes.
		vals := make([]float64, (k+1)*w)
		if len(raw) < 8 {
			raw = append(raw, make([]byte, 8)...)
		}
		cycle := max(1, (len(raw)-7)/8)
		for i := range vals {
			o := (i * 8) % (len(raw) - 7)
			x := math.Float64frombits(binary.LittleEndian.Uint64(raw[o:]))
			if snap && !math.IsNaN(x) && !math.IsInf(x, 0) {
				x = math.Round(math.Mod(x, 4))
			}
			vals[i] = x + float64(i/cycle) // a cycle on, the values differ
		}
		checkNearest(t, vals[w:], w, vals[:w], int(guess)%k, 0, k-1)
	})
}

// TestWeightedPick covers the k-means++ pick, including the one input on
// which it differs from the loop it replaced: a target that rounding leaves
// above the running sum's end. The old loop fell through to index 0 — here a
// point of weight zero, that is, a seed chosen already, which manufactured an
// empty cluster; the pick is now the last index with weight. Seeded bytes
// change in that case alone.
func TestWeightedPick(t *testing.T) {
	w := []float64{0, 3, 0, 2, 0}
	for _, c := range []struct {
		target float64
		want   int
	}{
		{0, 0}, {0.5, 1}, {3, 1}, {3.5, 3}, {5, 3},
		{5.000001, 3}, // past the end: was 0
	} {
		if got := weightedPick(w, c.target); got != c.want {
			t.Errorf("weightedPick(%v, %v) = %d, want %d", w, c.target, got, c.want)
		}
	}
}
