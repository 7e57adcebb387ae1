//go:build race

package pagecache

// raceEnabled reports a -race build, which instruments allocations, so
// allocation-budget tests skip themselves.
const raceEnabled = true
