package blem

import (
	"bytes"
	"errors"
	"testing"

	"attache/internal/snap"
)

func snapshot(e *Engine) []byte {
	c := snap.NewEncoder(1)
	e.WalkSnap(c)
	return c.Bytes()
}

// restore decodes image into a fresh engine of the given CID width.
func restore(t *testing.T, cidBits int, image []byte) (*Engine, error) {
	t.Helper()
	c, _, err := snap.Open(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cidBits, 99) // another seed: the snapshot's CID must win
	e.WalkSnap(c)
	return e, c.Finish()
}

// TestWalkSnapRoundTrip: CID, Replacement Area and counters survive a
// snapshot, and the restored engine writes the same bytes.
func TestWalkSnapRoundTrip(t *testing.T) {
	e := NewEngine(4, 1)
	e.cid = 0xB
	for _, a := range []uint64{9, 3, 1 << 40, 5} {
		e.ra.Store(a, a%2 == 1)
	}
	e.Stats.Writes.Add(7)
	e.Stats.RAReads.Add(2)
	image := snapshot(e)

	r, err := restore(t, 4, image)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot(r), image) {
		t.Fatal("restore→snapshot changed the bytes")
	}
	if r.cid != 0xB || r.ra.Len() != 4 || !r.ra.Load(9) || r.ra.Load(1<<40) {
		t.Fatalf("restored CID %#x, %d RA entries", r.cid, r.ra.Len())
	}
	if r.Stats != e.Stats {
		t.Fatalf("counters %+v restored as %+v", e.Stats, r.Stats)
	}

	// A CID wider than the engine it is restored into is another
	// configuration's snapshot.
	if _, err := restore(t, 3, image); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("4-bit CID into a 3-bit engine: got %v, want ErrCorrupt", err)
	}
}
