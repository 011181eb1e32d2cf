package kerneltest

import (
	"math"
	"testing"
)

// TestClasses holds the class prefixes to what they promise: Tiny values
// are zeros and subnormals, NonNaN adds no NaN, and every value after it
// is a NaN of its own payload.
func TestClasses(t *testing.T) {
	payloads := map[uint64]bool{}
	for i, x := range Specials {
		switch {
		case i < Tiny && math.Abs(x) >= 2.2250738585072014e-308:
			t.Errorf("Specials[%d] = %v is in Tiny but not zero or subnormal", i, x)
		case i < NonNaN && math.IsNaN(x):
			t.Errorf("Specials[%d] is NaN inside NonNaN", i)
		case i >= NonNaN && !math.IsNaN(x):
			t.Errorf("Specials[%d] = %v is past NonNaN but not NaN", i, x)
		case i >= NonNaN && payloads[math.Float64bits(x)]:
			t.Errorf("Specials[%d] repeats a NaN payload", i)
		}
		if i >= NonNaN {
			payloads[math.Float64bits(x)] = true
		}
	}
}
