//go:build !amd64

package prefetch

func line(uintptr) {}
