//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation allocates, so allocation-count tests skip under it.
const raceEnabled = true
