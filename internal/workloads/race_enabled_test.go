//go:build race

package workloads

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation allocates, so allocation-count tests skip under it.
const raceEnabled = true
