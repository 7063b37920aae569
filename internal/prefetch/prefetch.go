// Package prefetch asks the CPU to pull memory into its caches ahead of
// use, so that several misses overlap instead of following one another.
// A hint changes no value a program reads: on amd64 it is PREFETCHT0, on
// every other architecture it does nothing.
package prefetch

// Range hints every cache line that the n bytes at addr touch.
func Range(addr, n uintptr) {
	for a := addr &^ 63; a < addr+n; a += 64 {
		line(a)
	}
}
