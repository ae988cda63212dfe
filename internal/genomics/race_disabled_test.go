//go:build !race

package genomics

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
