//go:build !race

package transport_test

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are meaningless under it.
const raceEnabled = false
