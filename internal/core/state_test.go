package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"attache/internal/snap"
)

// snapMemory drives a seeded workload into a memory whose 3-bit CID
// parks incompressible lines in the Replacement Area.
func snapMemory(t *testing.T) *Memory {
	t.Helper()
	opts := DefaultOptions()
	opts.CIDBits = 3
	opts.Predictor.PaPRBytes, opts.Predictor.PaPRWays = 64, 2
	opts.Predictor.LiPRBytes, opts.Predictor.LiPRWays = 256, 2
	m, err := NewMemory(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	line := make([]byte, LineSize)
	for i := 0; i < 400; i++ {
		addr := uint64(rng.Intn(80))
		if rng.Intn(3) > 0 {
			if addr%2 == 0 {
				rng.Read(line)
			} else {
				for j := range line {
					line[j] = byte(addr)
				}
			}
			if err := m.Write(addr, line); err != nil {
				t.Fatal(err)
			}
		} else if _, err := m.Read(addr); err != nil && !errors.Is(err, ErrNeverWritten) {
			t.Fatal(err)
		}
	}
	if m.stats.RAOccupancy == 0 || m.stats.CompressedLines == 0 {
		t.Fatalf("workload left no collided or no compressed lines: %+v", m.stats)
	}
	return m
}

func snapshot(m *Memory) []byte {
	c := snap.NewEncoder(1)
	m.WalkSnap(c)
	return c.Bytes()
}

// restore decodes image into a fresh memory built from opts.
func restore(t *testing.T, opts Options, image []byte) (*Memory, error) {
	t.Helper()
	c, _, err := snap.Open(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMemory(opts)
	if err != nil {
		t.Fatal(err)
	}
	m.WalkSnap(c)
	return m, c.Finish()
}

// TestWalkSnapRoundTrip: a restored memory writes the same bytes, keeps
// the same books, and returns every line.
func TestWalkSnapRoundTrip(t *testing.T) {
	m := snapMemory(t)
	image := snapshot(m)
	if len(image) > 12+m.SnapshotBytes() {
		t.Fatalf("image is %d bytes, SnapshotBytes promised at most %d", len(image)-12, m.SnapshotBytes())
	}
	r, err := restore(t, m.Options(), image)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot(r), image) {
		t.Fatal("restore→snapshot changed the bytes")
	}
	if m.StatsSnapshot() != r.StatsSnapshot() {
		t.Fatalf("books diverged:\noriginal %+v\nrestored %+v", m.StatsSnapshot(), r.StatsSnapshot())
	}
	for addr := range m.lines {
		want, err := m.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Read(addr)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("line %#x diverged after restore (%v)", addr, err)
		}
	}
}

// TestWalkSnapRefuses: a snapshot whose parts disagree with each other,
// or with the configuration it is restored into, is refused.
func TestWalkSnapRefuses(t *testing.T) {
	anyLine := func(m *Memory, pick func(StoredLine) bool) uint64 {
		for a, l := range m.lines {
			if pick(*l) {
				return a
			}
		}
		t.Fatal("no such line")
		return 0
	}
	for name, tc := range map[string]struct {
		live    func(m *Memory)
		restore func(o *Options)
	}{
		"compressed-gauge": {live: func(m *Memory) { m.stats.CompressedLines++ }},
		"ra-gauge":         {live: func(m *Memory) { m.stats.RAOccupancy-- }},
		"compressed-and-collided": {live: func(m *Memory) {
			a := anyLine(m, func(l StoredLine) bool { return l.Compressed })
			l := m.lines[a]
			l.Collision = true
			m.lines[a] = l
			m.stats.RAOccupancy++ // keep the gauges honest: the flags are the fault
		}},
		"predictor-missing": {restore: func(o *Options) { o.DisablePredictor = true }},
	} {
		t.Run(name, func(t *testing.T) {
			m := snapMemory(t)
			opts := m.Options()
			if tc.live != nil {
				tc.live(m)
			}
			if tc.restore != nil {
				tc.restore(&opts)
			}
			if _, err := restore(t, opts, snapshot(m)); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}
