//go:build race

package index

// raceEnabled reports a -race build, which instruments allocations, so
// allocation-budget tests skip themselves.
const raceEnabled = true
