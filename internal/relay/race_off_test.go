//go:build !race

package relay

// raceEnabled reports whether the race detector instruments this build;
// allocation counts are meaningless under its shadow allocations.
const raceEnabled = false
