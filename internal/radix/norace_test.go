//go:build !race

package radix

const raceEnabled = false
