package snap_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/snap"
	"attache/internal/tier"
)

// seedImages builds the hand-picked snapshot shapes the fuzzer starts
// from: a cluster of no engines, a minimal untiered engine, and a small
// tiered engine with every section populated. The three files under
// testdata/fuzz/FuzzSnapshotRoundTrip are frozen artifacts: the same
// three shapes as written by the tree encoder this target used to drive
// (their writer, TestWriteFuzzCorpus, went with the trees).
func seedImages(f *testing.F) [][]byte {
	opts := core.DefaultOptions()
	opts.CIDBits = 3
	opts.DisablePredictor = true

	minimal, err := shard.New(opts, shard.Config{Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer minimal.Close()

	tiered, err := shard.New(opts, shard.Config{Shards: 1, Tier: &tier.Config{NearLines: 2, Policy: tier.PolicyFreq, FreqThreshold: 2, FreqDecayEvery: 8}})
	if err != nil {
		f.Fatal(err)
	}
	defer tiered.Close()
	line := make([]byte, core.LineSize)
	for i := 0; i < 40; i++ {
		// Odd addresses take incompressible lines: a 3-bit CID parks one
		// in eight of them in the Replacement Area.
		addr := uint64(i % 12)
		for j := range line {
			line[j] = byte((i*131 + j*j) * int(addr%2))
		}
		if err := tiered.Write(addr, line); err != nil {
			f.Fatal(err)
		}
		if _, err := tiered.Read(uint64(i % 5)); err != nil {
			f.Fatal(err)
		}
	}

	images := [][]byte{snap.NewEncoder(0).Bytes()}
	for _, eng := range []*shard.Engine{minimal, tiered} {
		var buf bytes.Buffer
		if err := eng.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		images = append(images, buf.Bytes())
	}
	return images
}

// FuzzSnapshotRoundTrip drives the real restore path from its outermost
// entry point: on arbitrary input cluster.RestoreFrom never panics, and
// — because every walk enforces canonical form and refuses rather than
// repairs — any input it accepts is exactly what the restored cluster
// writes back (restore∘write is the identity on the accepted set; an
// accepted version-1 input comes back sealed as version 2). That a
// refusal allocates in proportion to its input is pinned where it is
// deterministic: shard's TestRestoreRejectsHostileOptions.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, img := range seedImages(f) {
		f.Add(img)
	}
	f.Add([]byte("ATSNAP"))
	f.Add([]byte{})
	for _, fx := range fixtures {
		img, err := os.ReadFile(filepath.Join("testdata", fx.file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cl, err := cluster.RestoreFrom(bytes.NewReader(data), shard.Config{}, cluster.Config{})
		if err != nil {
			return
		}
		defer cl.Close()
		want := data
		if binary.LittleEndian.Uint16(data[6:]) == 1 {
			want = sealed(data)
		}
		if img := cl.Snapshot(); !bytes.Equal(img, want) {
			t.Fatalf("accepted input is not canonical: restored cluster writes %d bytes that differ from the %d-byte input", len(img), len(data))
		}
	})
}
