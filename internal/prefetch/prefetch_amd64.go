package prefetch

// line issues PREFETCHT0 for the cache line holding addr.
func line(addr uintptr)
