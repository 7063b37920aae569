//go:build !race

package client

// raceEnabled reports whether the race detector is compiled in; the
// absolute allocation-budget assertions skip under it, since race
// instrumentation itself allocates.
const raceEnabled = false
