// The snapv1 conformance suite. The format's bytes are produced by the
// walks of five packages, so these tests drive it from the outermost
// entry points — cluster.RestoreFrom and WriteSnapshot — and compare
// bytes: there is no intermediate form to compare.
package snap_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"attache/internal/cluster"
	"attache/internal/core"
	"attache/internal/shard"
	"attache/internal/snap"
	"attache/internal/tier"
)

// newEngine drives a small deterministic workload through a real
// 2-shard engine with the paper's predictor — the realistic snapshot
// shape for round-trip tests.
func newEngine(t *testing.T, tiered bool) *shard.Engine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = 42
	cfg := shard.Config{Shards: 2}
	if tiered {
		cfg.Tier = &tier.Config{NearLines: 8, Policy: tier.PolicyFreq, FreqThreshold: 2, FreqDecayEvery: 64}
	}
	eng, err := shard.New(opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })

	rng := rand.New(rand.NewSource(7))
	line := make([]byte, core.LineSize)
	for i := 0; i < 600; i++ {
		addr := uint64(rng.Intn(96))
		if rng.Intn(2) == 0 {
			for j := range line {
				line[j] = byte(addr + uint64(i+j))
			}
			if err := eng.Write(addr, line); err != nil {
				t.Fatal(err)
			}
		} else if _, err := eng.Read(addr); err != nil && !errors.Is(err, core.ErrNeverWritten) {
			t.Fatal(err)
		}
	}
	return eng
}

// image is the engine's WriteSnapshot output.
func image(t *testing.T, eng *shard.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreWrite restores the cluster in and returns its snapshot.
func restoreWrite(in io.Reader) ([]byte, error) {
	cl, err := cluster.RestoreFrom(in, shard.Config{}, cluster.Config{})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.Snapshot(), nil
}

// TestRoundTrip: writing is deterministic, and restore→write reproduces
// the image exactly.
func TestRoundTrip(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		name := "untiered"
		if tiered {
			name = "tiered"
		}
		t.Run(name, func(t *testing.T) {
			eng := newEngine(t, tiered)
			img := image(t, eng)
			if !bytes.Equal(img, image(t, eng)) {
				t.Fatal("encoding is not deterministic")
			}
			got, err := restoreWrite(bytes.NewReader(img))
			if err != nil {
				t.Fatalf("restore of a fresh image failed: %v", err)
			}
			if !bytes.Equal(got, img) {
				t.Fatal("write(restore(bytes)) != bytes")
			}
		})
	}
}

// TestStreamRoundTrip: the engine's io.Writer form and a cluster's
// []byte form are the same image, and a stream that hands out
// a byte at a time restores like a buffer does.
func TestStreamRoundTrip(t *testing.T) {
	eng := newEngine(t, true)
	img := image(t, eng)
	cl, err := cluster.Wrap([]*shard.Engine{eng}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cl.Snapshot(), img) {
		t.Fatal("Engine.WriteSnapshot and Cluster.Snapshot disagree")
	}
	got, err := restoreWrite(iotest.OneByteReader(bytes.NewReader(img)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("stream restore did not round-trip")
	}
}

// TestDecodeRejects pins the failure taxonomy: every truncation of a
// valid snapshot fails cleanly, targeted corruptions produce
// ErrCorrupt/ErrVersion rather than panics or silent acceptance, and an
// image that counts no engines is corrupt while one that counts two is
// refused with ErrMultiEngine.
func TestDecodeRejects(t *testing.T) {
	enc := image(t, fixtureEngine(t, true))

	t.Run("every-truncation", func(t *testing.T) {
		// Every strict prefix must be rejected — no truncation may restore.
		for n := 0; n < len(enc); n++ {
			if _, err := restoreWrite(bytes.NewReader(enc[:n])); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("truncation to %d/%d bytes: got %v, want ErrCorrupt", n, len(enc), err)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[0] ^= 0xFF
		if _, err := restoreWrite(bytes.NewReader(bad)); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[6] = 0xFE // u16 version lives right after the 6-byte magic
		bad[7] = 0xCA
		if _, err := restoreWrite(bytes.NewReader(bad)); !errors.Is(err, snap.ErrVersion) {
			t.Fatalf("version skew: got %v, want ErrVersion", err)
		}
	})
	t.Run("trailing-bytes", func(t *testing.T) {
		bad := append(append([]byte(nil), enc...), 0x00)
		if _, err := restoreWrite(bytes.NewReader(bad)); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("trailing byte: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := restoreWrite(bytes.NewReader(nil)); err == nil {
			t.Fatal("empty input restored")
		}
	})
	t.Run("no-engines", func(t *testing.T) {
		if _, err := restoreWrite(bytes.NewReader(withEngines(enc, 0))); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("zero-engine image: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("multi-engine", func(t *testing.T) {
		if _, err := restoreWrite(bytes.NewReader(withEngines(enc, 2))); !errors.Is(err, snap.ErrMultiEngine) {
			t.Fatalf("two-engine image: got %v, want ErrMultiEngine", err)
		}
	})
	t.Run("huge-count", func(t *testing.T) {
		// Magic + version + an absurd engine count must fail on the count
		// guard, not attempt allocation.
		b := append([]byte("ATSNAP"), 1, 0, 0xFF, 0xFF, 0xFF, 0xFF)
		_, err := restoreWrite(bytes.NewReader(b))
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("huge count: got %v, want ErrCorrupt", err)
		}
		if want := "engine count 4294967295 exceeds remaining input"; err.Error()[:len(want)] != want {
			t.Fatalf("huge count failed on %q, want the count guard", err)
		}
	})
}

// fixtureEngine drives the seeded workload behind the committed
// testdata/*.snapv1 fixtures: a 3-bit CID so incompressible lines
// collide into the Replacement Area, a small predictor so the tables
// stay a few KB, and (tiered) the freq policy so near lines and far
// freq counters are both populated.
func fixtureEngine(t *testing.T, tiered bool) *shard.Engine {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = 42
	opts.CIDBits = 3
	opts.Predictor.PaPRBytes, opts.Predictor.PaPRWays = 64, 2
	opts.Predictor.LiPRBytes, opts.Predictor.LiPRWays = 256, 2
	cfg := shard.Config{Shards: 2}
	if tiered {
		cfg.Tier = &tier.Config{NearLines: 8, Policy: tier.PolicyFreq, FreqThreshold: 2, FreqDecayEvery: 64}
	}
	eng, err := shard.New(opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	rng := rand.New(rand.NewSource(7))
	line := make([]byte, core.LineSize)
	for i := 0; i < 900; i++ {
		addr := uint64(rng.Intn(160))
		if rng.Intn(2) == 0 {
			if addr%2 == 0 {
				rng.Read(line)
			} else {
				for j := range line {
					line[j] = byte(addr)
				}
			}
			if err := eng.Write(addr, line); err != nil {
				t.Fatal(err)
			}
		} else if _, err := eng.Read(addr); err != nil && !errors.Is(err, core.ErrNeverWritten) {
			t.Fatal(err)
		}
	}
	return eng
}

var fixtures = []struct {
	file   string
	tiered bool
}{
	{"untiered-predictor.snapv1", false},
	{"tiered-freq.snapv1", true},
}

// sealed is a version-1 image as today's writer lays it out: the same
// body with version field 2, then the CRC-32C of every byte before it.
func sealed(v1 []byte) []byte {
	b := append([]byte(nil), v1...)
	binary.LittleEndian.PutUint16(b[6:], 2)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// withEngines copies a sealed image with the u32 engine count at byte 8
// (after the magic and the version) set to n, and reseals the trailer.
func withEngines(img []byte, n uint32) []byte {
	b := append([]byte(nil), img[:len(img)-4]...)
	binary.LittleEndian.PutUint32(b[8:], n)
	return sealed(b)
}

// TestFixtures pins the snapshot byte layout against version-1 images
// written by the two-sided encoder over mirrored state trees that
// preceded the per-package walks (same workload): they must still
// restore, and both today's WriteSnapshot and restore→write must
// reproduce them byte for byte, sealed as version 2. Never regenerate
// these files to make the test pass — a diff here is a format change
// and needs a Version bump. (That every optional section is populated
// in them is shard's TestFixtureSectionsPopulated, which can see the
// live state.)
func TestFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.file, func(t *testing.T) {
			v1, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			if v := binary.LittleEndian.Uint16(v1[6:]); v != 1 {
				t.Fatalf("fixture has version %d, want 1", v)
			}
			want := sealed(v1)
			eng := fixtureEngine(t, fx.tiered)
			if got := image(t, eng); !bytes.Equal(got, want) {
				t.Fatalf("WriteSnapshot wrote %d bytes that differ from the %d-byte sealed fixture", len(got), len(want))
			}
			got, err := restoreWrite(bytes.NewReader(v1))
			if err != nil {
				t.Fatalf("fixture does not restore: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("write(restore(fixture)) != sealed fixture")
			}
		})
	}
}

// TestBitFlipsAreRejected: no single flipped bit restores. The image is
// one written line in a 1-shard, predictor-off engine, where without
// the trailer a flip in the line's payload or in a counter decodes to a
// valid state that reads back different bytes.
func TestBitFlipsAreRejected(t *testing.T) {
	opts := core.DefaultOptions()
	opts.DisablePredictor = true
	eng, err := shard.New(opts, shard.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	line := make([]byte, core.LineSize)
	for i := range line {
		line[i] = byte(i)
	}
	if err := eng.Write(5, line); err != nil {
		t.Fatal(err)
	}
	img := image(t, eng)
	// Offsets 0-7 are the magic and the version, whose flips fail on
	// their own checks; everything after them is the trailer's to guard.
	for off := 8; off < len(img); off++ {
		bad := append([]byte(nil), img...)
		bad[off] ^= 1
		if _, err := restoreWrite(bytes.NewReader(bad)); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("low bit flipped at offset %d of %d: got %v, want ErrCorrupt", off, len(img), err)
		}
	}
}
