package trace

import (
	"bytes"
	"testing"
)

// TestLineIntoMatchesLine: the reusing path must produce byte-identical
// content to the allocating path (a nil buffer), including after the
// buffer held a
// previous (different) line.
func TestLineIntoMatchesLine(t *testing.T) {
	d := NewDataModel(99, 0.5, 0.8)
	scratch := make([]byte, LineSize)
	for addr := uint64(0); addr < 2000; addr++ {
		want := d.LineInto(addr, nil)
		got := d.LineInto(addr, scratch)
		if !bytes.Equal(got, want) {
			t.Fatalf("addr %d: a reused buffer differs from a fresh one", addr)
		}
	}
	// Undersized buffers fall back to allocating.
	if got := d.LineInto(7, make([]byte, 3)); !bytes.Equal(got, d.LineInto(7, nil)) {
		t.Fatal("LineInto with a short buffer differs from a fresh one")
	}
}
