package main

import (
	"math"
	"testing"
)

// TestCompare checks the table's arithmetic on fixed pairs: quartiles by
// the exclusive method, per-pair ratios, wins with ties for neither side,
// and the rule for a gain in both directions.
func TestCompare(t *testing.T) {
	parent := []float64{0.150, 0.148, 0.152, 0.160, 0.149, 0.151, 0.155, 0.147, 0.150, 0.153}
	change := []float64{0.135, 0.133, 0.136, 0.140, 0.134, 0.151, 0.138, 0.132, 0.135, 0.137}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

	r := compare("lower", parent, change)
	// parent sorted: .147 .148 .149 .150 .150 .151 .152 .153 .155 .160
	if !near(r.parent[0], 0.14875) || !near(r.parent[1], 0.1505) || !near(r.parent[2], 0.1535) {
		t.Fatalf("parent q1/median/q3 = %v", r.parent)
	}
	// change sorted: .132 .133 .134 .135 .135 .136 .137 .138 .140 .151
	if !near(r.change[0], 0.13375) || !near(r.change[1], 0.1355) || !near(r.change[2], 0.1385) {
		t.Fatalf("change q1/median/q3 = %v", r.change)
	}
	// Pair 6 is a tie (0.151 both sides): nine wins, no loss.
	if r.wins != 9 || r.pairs != 10 || !r.gain {
		t.Fatalf("wins %d/%d gain %t, want 9/10 true", r.wins, r.pairs, r.gain)
	}
	if !near(r.ratio[0], 0.140/0.160) || !near(r.ratio[4], 1) {
		t.Fatalf("ratio min/max = %v/%v", r.ratio[0], r.ratio[4])
	}
	if !near(r.gap, 0.1505-0.1355) || !near(r.parentIQR, 0.1535-0.14875) {
		t.Fatalf("gap %v, parent IQR %v", r.gap, r.parentIQR)
	}
	ratios := make([]float64, len(parent))
	for i := range parent {
		ratios[i] = change[i] / parent[i]
	}
	if want := spread(ratios); r.ratio[1] != want[0] || r.ratio[2] != want[1] || r.ratio[3] != want[2] {
		t.Fatalf("ratio quartiles %v, want %v", r.ratio[1:4], want)
	}

	// Read as a higher-is-better metric, the same numbers are nine losses.
	if h := compare("higher", parent, change); h.wins != 0 || h.gain || h.gap >= 0 {
		t.Fatalf("higher: wins %d gain %t gap %v", h.wins, h.gain, h.gap)
	}
	// Eight wins in ten fail the rule even with a wide gap.
	lost := append([]float64(nil), change...)
	lost[0] = 0.2
	if l := compare("lower", parent, lost); l.wins != 8 || l.gain {
		t.Fatalf("eight wins: wins %d gain %t", l.wins, l.gain)
	}
	// Ten wins by less than the parent's IQR fail it too.
	narrow := make([]float64, len(parent))
	for i, p := range parent {
		narrow[i] = p - 0.001
	}
	if c := compare("lower", parent, narrow); c.wins != 10 || c.gain {
		t.Fatalf("narrow gap: wins %d gain %t", c.wins, c.gain)
	}

	if s := spread([]float64{3, 1, 2}); s != [3]float64{1, 2, 3} {
		t.Fatalf("spread of three = %v", s)
	}
	if s := spread([]float64{7}); s != [3]float64{7, 7, 7} {
		t.Fatalf("spread of one = %v", s)
	}
}
