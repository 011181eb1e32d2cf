//go:build !race

package eval

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are meaningless under it.
const raceEnabled = false
